package fm_test

import (
	"fmt"

	"streamhist/internal/fm"
)

// Distinct counting with a Flajolet-Martin sketch.
func ExampleNew() {
	s, err := fm.New(64, 1)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 100000; i++ {
		s.Add(uint64(i % 5000)) // 5000 distinct values, many duplicates
	}
	est := s.Estimate()
	fmt.Println("within 25% of 5000:", est > 3750 && est < 6250)
	// Output:
	// within 25% of 5000: true
}
