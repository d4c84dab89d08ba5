// Quickstart: maintain an approximate histogram over a sliding window of a
// stream and answer range-sum queries from it, comparing against the exact
// answers — the core use case of Guha & Koudas (ICDE 2002).
package main

import (
	"fmt"
	"log"

	"streamhist"
	"streamhist/internal/datagen"
)

func main() {
	const (
		window  = 1024 // points kept in the sliding window
		buckets = 12   // histogram budget B
		eps     = 0.1  // approximation precision
	)

	// NewFixedWindow uses the worst-case growth factor eps/(2B); the
	// paper's own experiments plug eps in directly, which is what we do
	// here — near-optimal in practice and much faster per point.
	fw, err := streamhist.NewFixedWindow(window, buckets, eps, streamhist.WithDelta(eps))
	if err != nil {
		log.Fatal(err)
	}

	// A synthetic router-utilization stream (stand-in for live data).
	stream := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 7, Quantize: true})
	for i := 0; i < 5000; i++ {
		fw.Push(stream.Next())
	}

	res, err := fw.Histogram()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("window holds %d points (stream positions %d..%d)\n",
		fw.Len(), fw.WindowStart(), fw.Seen()-1)
	fmt.Printf("histogram: %d buckets, SSE %.1f (approx error bound %.1f)\n\n",
		res.Histogram.NumBuckets(), res.SSE, res.Histogram.SSE(fw.Window()))

	// Answer a few range-sum queries from the summary and compare with
	// the exact answers computed from the buffered window.
	win := fw.Window()
	for _, q := range [][2]int{{0, 1023}, {100, 300}, {512, 640}, {900, 910}} {
		exact := 0.0
		for i := q[0]; i <= q[1]; i++ {
			exact += win[i]
		}
		est := res.Histogram.EstimateRangeSum(q[0], q[1])
		fmt.Printf("sum over window[%4d..%4d]: exact %10.0f  estimate %10.0f  (rel err %.2f%%)\n",
			q[0], q[1], exact, est, 100*relErr(est, exact))
	}

	fmt.Println("\nbuckets:")
	for _, b := range res.Histogram.Buckets {
		fmt.Printf("  [%4d..%4d] ~ %.1f\n", b.Start, b.End, b.Value)
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}
