// Selectivity estimation: the query-optimization application that
// motivates histogram research. A single pass over a stream of column
// values simultaneously feeds a streaming equi-depth value histogram
// (for "how many rows match value BETWEEN a AND b"), a Greenwald-Khanna
// quantile summary and running column statistics, using a tee so the
// stream really is read once.
package main

import (
	"fmt"
	"log"
	"math"

	"streamhist/internal/datagen"
	"streamhist/internal/quantile"
	"streamhist/internal/stream"
	"streamhist/internal/vhist"
)

func main() {
	const (
		rows    = 200000
		buckets = 24
	)

	sed, err := vhist.NewStreamingEqualDepth(buckets, 0.005)
	if err != nil {
		log.Fatal(err)
	}
	gk, err := quantile.NewGK(0.01)
	if err != nil {
		log.Fatal(err)
	}
	var stats stream.Counter

	tee := stream.Tee{
		stream.ConsumerFunc(sed.Push),
		stream.ConsumerFunc(gk.Insert),
		&stats,
	}

	// The column: quantized utilization values (bounded integers). Keep a
	// copy only to report exact answers; the summaries never see it twice.
	column := make([]float64, 0, rows)
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 31, Quantize: true})
	for i := 0; i < rows; i++ {
		v := g.Next()
		column = append(column, v)
		tee.Push(v)
	}

	h, err := sed.Histogram()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one pass over %d rows -> %d-bucket value histogram (%d summary tuples), GK summary, column stats\n\n",
		rows, h.NumBuckets(), sed.Space())

	fmt.Println("predicate selectivity: value BETWEEN a AND b")
	for _, q := range [][2]float64{{0, 100}, {200, 400}, {450, 550}, {800, 1000}} {
		est := h.Selectivity(q[0], q[1])
		exact := vhist.ExactSelectivity(column, q[0], q[1])
		fmt.Printf("  [%4.0f, %4.0f]: estimated %6.2f%%  exact %6.2f%%\n",
			q[0], q[1], 100*est, 100*exact)
	}

	fmt.Println("\nquantiles of the column (GK, eps=0.01)")
	for _, phi := range []float64{0.25, 0.5, 0.9, 0.99} {
		v, err := gk.Query(phi)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  p%-4.0f = %.0f\n", phi*100, v)
	}

	fmt.Printf("\ncolumn stats: mean %.1f, stddev %.1f, range [%.0f, %.0f]\n",
		stats.Mean(), math.Sqrt(stats.Variance()), stats.Min, stats.Max)
}
