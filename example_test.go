package streamhist_test

import (
	"fmt"

	"streamhist"
)

// The headline use: maintain an approximate histogram over the most
// recent points of a stream and answer range sums from it.
func ExampleNewFixedWindow() {
	fw, err := streamhist.NewFixedWindow(8, 2, 1, streamhist.WithDelta(1))
	if err != nil {
		panic(err)
	}
	// The paper's Example 1: after these pushes the window holds
	// 100,0,0,0,1,1,1,1.
	for _, v := range []float64{100, 0, 0, 0, 1, 1, 1, 1} {
		fw.Push(v)
	}
	// Slide once: 100 drops out, a 1 arrives.
	fw.Push(1)
	res, err := fw.Histogram()
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Histogram)
	fmt.Println("SSE:", res.SSE)
	// Output:
	// [0,2]=0 [3,7]=1
	// SSE: 0
}

// Summarize an unbounded stream since its start without storing it.
func ExampleNewAgglomerative() {
	agg, err := streamhist.NewAgglomerative(2, 0.1)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 6; i++ {
		agg.Push(10)
	}
	for i := 0; i < 6; i++ {
		agg.Push(50)
	}
	res, err := agg.Histogram()
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Histogram)
	fmt.Printf("points seen: %d, error: %.0f\n", agg.N(), res.SSE)
	// Output:
	// [0,5]=10 [6,11]=50
	// points seen: 12, error: 0
}

// The exact quadratic construction for finite data.
func ExampleOptimal() {
	data := []float64{5, 5, 5, 9, 9, 1, 1, 1}
	res, err := streamhist.Optimal(data, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Histogram)
	fmt.Println("SSE:", res.SSE)
	// Output:
	// [0,2]=5 [3,4]=9 [5,7]=1
	// SSE: 0
}

// One-pass epsilon-approximate construction (Problem 2 of the paper).
func ExampleApproximate() {
	data := []float64{2, 2, 2, 2, 8, 8, 8, 8}
	res, err := streamhist.Approximate(data, 2, 0.1)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Histogram)
	// Output:
	// [0,3]=2 [4,7]=8
}

// Estimating range sums from a histogram.
func ExampleHistogram_EstimateRangeSum() {
	data := []float64{1, 1, 1, 1, 10, 10, 10, 10}
	res, err := streamhist.Optimal(data, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Histogram.EstimateRangeSum(2, 5)) // 1+1+10+10
	// Output:
	// 22
}
