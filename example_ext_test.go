package streamhist_test

import (
	"fmt"
	"time"

	"streamhist"
)

// Time-based windows: points expire by age, not count.
func ExampleWithSpan() {
	tw, err := streamhist.NewFixedWindow(100, 4, 0.5,
		streamhist.WithDelta(0.5), streamhist.WithSpan(10*time.Second))
	if err != nil {
		panic(err)
	}
	base := time.Unix(1_000_000, 0)
	// Thirty points, one per second: only the last ten survive.
	for i := 0; i < 30; i++ {
		if err := tw.PushAt(base.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			panic(err)
		}
	}
	fmt.Println("in window:", tw.Len())
	fmt.Println("oldest value:", tw.Window()[0])
	// Output:
	// in window: 10
	// oldest value: 20
}

// Streaming quantiles with the Greenwald-Khanna summary.
func ExampleNewGKQuantile() {
	gk, err := streamhist.NewGKQuantile(0.01)
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

// Detecting a distribution shift between windows.
func ExampleNewDriftDetector() {
	det, err := streamhist.NewDriftDetector(10)
	if err != nil {
		panic(err)
	}
	quiet := make([]float64, 64)
	shifted := make([]float64, 64)
	for i := range quiet {
		quiet[i] = 100
		shifted[i] = 400
	}
	h1, _ := streamhist.Optimal(quiet, 4)
	h2, _ := streamhist.Optimal(shifted, 4)

	_, drifted, _ := det.Observe(h1.Histogram) // installs the reference
	fmt.Println("first observation drifts:", drifted)
	dist, drifted, _ := det.Observe(h2.Histogram)
	fmt.Printf("shift detected: %v (distance %.0f)\n", drifted, dist)
	// Output:
	// first observation drifts: false
	// shift detected: true (distance 300)
}

// Distinct counting with a Flajolet-Martin sketch.
func ExampleNewFMSketch() {
	s, err := streamhist.NewFMSketch(64, 1)
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

// Snapshot and restore a running summary (restart recovery).
func ExampleFixedWindow_MarshalBinary() {
	m, _ := streamhist.NewFixedWindow(8, 2, 0.5, streamhist.WithDelta(0.5))
	fw := m.FixedWindow()
	for i := 1; i <= 10; i++ {
		fw.Push(float64(i))
	}
	blob, err := fw.MarshalBinary()
	if err != nil {
		panic(err)
	}
	var restored streamhist.FixedWindow
	if err := restored.UnmarshalBinary(blob); err != nil {
		panic(err)
	}
	fmt.Println("seen:", restored.Seen(), "window:", restored.Window())
	// Output:
	// seen: 10 window: [3 4 5 6 7 8 9 10]
}
