// Warehouse: approximate query answering over a stored fact column. The
// column is scanned once to build a histogram summary; range aggregation
// queries are then answered from the summary without touching the data —
// the classical AQUA-style setting the paper evaluates in section 5.2,
// comparing the one-pass agglomerative construction against the optimal
// quadratic algorithm.
package main

import (
	"fmt"
	"log"
	"time"

	"streamhist"
	"streamhist/internal/datagen"
	"streamhist/internal/histogram"
	"streamhist/internal/query"
)

func main() {
	const (
		rows    = 10000
		buckets = 32
	)

	// A day of per-minute sales-like measurements.
	column := datagen.Series(
		datagen.NewUtilization(datagen.UtilizationConfig{Seed: 23, Quantize: true}), rows)

	queries, err := query.RandomRanges(24, 500, rows)
	if err != nil {
		log.Fatal(err)
	}

	type summary struct {
		name  string
		hist  *streamhist.Histogram
		build time.Duration
	}
	var summaries []summary

	start := time.Now()
	approx, err := streamhist.Approximate(column, buckets, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	summaries = append(summaries, summary{"agglomerative (one pass, eps=0.1)", approx.Histogram, time.Since(start)})

	start = time.Now()
	opt, err := streamhist.Optimal(column, buckets)
	if err != nil {
		log.Fatal(err)
	}
	summaries = append(summaries, summary{"optimal [JKM+98] (quadratic)", opt.Histogram, time.Since(start)})

	start = time.Now()
	ew, err := histogram.EqualWidth(column, buckets)
	if err != nil {
		log.Fatal(err)
	}
	summaries = append(summaries, summary{"equal-width", ew, time.Since(start)})

	fmt.Printf("column: %d rows, summarized with %d buckets\n\n", rows, buckets)
	fmt.Printf("%-36s %12s %12s %10s\n", "method", "MAE", "RMSE", "build")
	for _, s := range summaries {
		m := query.Evaluate(s.hist, column, queries)
		fmt.Printf("%-36s %12.1f %12.1f %10s\n", s.name, m.MAE, m.RMSE, s.build.Round(time.Microsecond))
	}

	fmt.Printf("\nSSE: agglomerative %.0f vs optimal %.0f (ratio %.3f, guarantee <= 1.1)\n",
		approx.SSE, opt.SSE, approx.SSE/opt.SSE)
	fmt.Println("the one-pass summary matches optimal accuracy at a fraction of the build cost,")
	fmt.Println("and the gap widens as the column grows (see cmd/experiments -run agglom-opt).")
}
