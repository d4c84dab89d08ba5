package vhist_test

import (
	"fmt"

	"streamhist/internal/vhist"
)

// Value-domain selectivity from a one-pass summary.
func ExampleStreamingEqualDepth() {
	sed, err := vhist.NewStreamingEqualDepth(4, 0.05)
	if err != nil {
		panic(err)
	}
	for i := 1; i <= 1000; i++ {
		sed.Push(float64(i))
	}
	h, err := sed.Histogram()
	if err != nil {
		panic(err)
	}
	sel := h.Selectivity(1, 250)
	fmt.Println("close to a quarter:", sel > 0.2 && sel < 0.3)
	// Output:
	// close to a quarter: true
}
