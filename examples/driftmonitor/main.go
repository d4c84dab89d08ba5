// Drift monitor: detect distribution change on a stream by comparing
// histogram summaries of the sliding window against a reference regime —
// the fault-monitoring scenario the paper's introduction motivates. The
// stream runs through three traffic regimes; the detector flags each
// transition and re-anchors.
package main

import (
	"fmt"
	"log"

	"streamhist"
	"streamhist/internal/datagen"
	"streamhist/internal/drift"
)

func main() {
	const (
		window  = 512
		buckets = 8
	)
	fw, err := streamhist.NewFixedWindowWithDelta(window, buckets, 0.1, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	det, err := drift.NewDetector(60)
	if err != nil {
		log.Fatal(err)
	}

	regimes := []struct {
		name   string
		base   float64
		spread float64
		points int
	}{
		{"normal traffic", 200, 10, 2000},
		{"congestion onset", 600, 40, 2000},
		{"recovery at reduced rate", 100, 10, 2000},
	}

	fmt.Printf("monitoring a %d-point window, checking every 128 points\n\n", window)
	step := 0
	for _, reg := range regimes {
		gen, err := datagen.NewStepSignal(int64(step), 60, reg.base-reg.spread, reg.base+reg.spread, reg.spread/4, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("-- regime: %s (around %.0f units) --\n", reg.name, reg.base)
		for i := 0; i < reg.points; i++ {
			fw.PushLazy(gen.Next())
			step++
			if step%128 != 0 || fw.Len() < window {
				continue
			}
			res, err := fw.Histogram()
			if err != nil {
				log.Fatal(err)
			}
			dist, drifted, err := det.Observe(res.Histogram)
			if err != nil {
				log.Fatal(err)
			}
			if drifted {
				fmt.Printf("   point %6d: DRIFT detected (distance %.1f), re-anchoring reference\n", step, dist)
			}
		}
	}
	fmt.Printf("\n%d checks, %d drift events across 3 regime changes\n", det.Checks(), det.Alarms())
}
