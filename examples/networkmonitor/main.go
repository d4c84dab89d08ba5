// Network monitor: the paper's motivating scenario. A router produces a
// per-second utilization stream; an operator keeps a one-hour sliding
// window summarized by a fixed-window histogram and asks "how many bytes
// flowed through interface X in the last m minutes?" without storing or
// scanning the raw hour. An agglomerative summary simultaneously tracks
// the distribution since the start of monitoring.
package main

import (
	"fmt"
	"log"

	"streamhist"
	"streamhist/internal/datagen"
)

const (
	secondsPerHour = 3600
	buckets        = 16
	eps            = 0.1
)

func main() {
	// Per-point maintenance over an hour-long window: the fixed-window
	// algorithm of the paper.
	fw, err := streamhist.NewFixedWindow(secondsPerHour, buckets, eps, streamhist.WithDelta(eps))
	if err != nil {
		log.Fatal(err)
	}
	// Since-boot summary: the agglomerative algorithm. A day-scale stream
	// only needs a coarse precision here; the summary's footprint is
	// O((B^2/eps) log n) endpoints regardless of how long monitoring runs.
	agg, err := streamhist.NewAgglomerative(8, 0.5)
	if err != nil {
		log.Fatal(err)
	}

	router := datagen.NewUtilization(datagen.UtilizationConfig{
		Seed:     99,
		Period:   secondsPerHour / 4, // a busy/quiet cycle every 15 minutes
		Quantize: true,
	})

	// Simulate a day of traffic. The lazy push defers histogram
	// maintenance to query time; use Push for per-second maintenance.
	const simulated = 24 * secondsPerHour
	for t := 0; t < simulated; t++ {
		v := router.Next()
		fw.PushLazy(v)
		agg.Push(v)
	}

	res, err := fw.Histogram()
	if err != nil {
		log.Fatal(err)
	}
	win := fw.Window()

	fmt.Println("last-hour traffic report (from the histogram summary)")
	fmt.Println("------------------------------------------------------")
	for _, mins := range []int{1, 5, 15, 30, 60} {
		span := mins * 60
		lo := len(win) - span
		est := res.Histogram.EstimateRangeSum(lo, len(win)-1)
		exact := 0.0
		for i := lo; i < len(win); i++ {
			exact += win[i]
		}
		fmt.Printf("last %2d min: estimated %12.0f units, exact %12.0f (err %+.2f%%)\n",
			mins, est, exact, 100*(est-exact)/exact)
	}

	// Busiest and quietest stretches of the hour, straight from buckets.
	var peak, trough streamhist.Bucket
	peak.Value = -1
	trough.Value = 1e18
	for _, b := range res.Histogram.Buckets {
		if b.Value > peak.Value {
			peak = b
		}
		if b.Value < trough.Value {
			trough = b
		}
	}
	fmt.Printf("\nbusiest stretch: seconds %d..%d at ~%.0f units/s\n", peak.Start, peak.End, peak.Value)
	fmt.Printf("quietest stretch: seconds %d..%d at ~%.0f units/s\n", trough.Start, trough.End, trough.Value)

	aggRes, err := agg.Histogram()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsince-boot summary: %d points compressed into %d buckets using %d stored endpoints\n",
		agg.N(), aggRes.Histogram.NumBuckets(), agg.StoredEndpoints())
	total := aggRes.Histogram.EstimateRangeSum(0, agg.N()-1)
	fmt.Printf("estimated total traffic over %d hours: %.0f units\n", simulated/secondsPerHour, total)
}
