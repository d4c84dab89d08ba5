package quantile_test

import (
	"fmt"

	"streamhist/internal/quantile"
)

// Streaming quantiles with the Greenwald-Khanna summary.
func ExampleNewGK() {
	gk, err := quantile.NewGK(0.01)
	if err != nil {
		panic(err)
	}
	for i := 1; i <= 10000; i++ {
		gk.Insert(float64(i))
	}
	p99, err := gk.Query(0.99)
	if err != nil {
		panic(err)
	}
	fmt.Println("p99 within 1% of 9900:", p99 >= 9800 && p99 <= 10000)
	// Output:
	// p99 within 1% of 9900: true
}
