package drift_test

import (
	"fmt"

	"streamhist/internal/drift"
	"streamhist/internal/vopt"
)

// Detecting a distribution shift between windows.
func ExampleNewDetector() {
	det, err := drift.NewDetector(10)
	if err != nil {
		panic(err)
	}
	quiet := make([]float64, 64)
	shifted := make([]float64, 64)
	for i := range quiet {
		quiet[i] = 100
		shifted[i] = 400
	}
	h1, _ := vopt.Build(quiet, 4)
	h2, _ := vopt.Build(shifted, 4)

	_, drifted, _ := det.Observe(h1.Histogram) // installs the reference
	fmt.Println("first observation drifts:", drifted)
	dist, drifted, _ := det.Observe(h2.Histogram)
	fmt.Printf("shift detected: %v (distance %.0f)\n", drifted, dist)
	// Output:
	// first observation drifts: false
	// shift detected: true (distance 300)
}
