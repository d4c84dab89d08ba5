// Command streamhist maintains a fixed-window histogram over a stream of
// numbers read from stdin (one value per line) or from a built-in
// generator, periodically printing the current summary and answering
// range-sum queries.
//
// Usage:
//
//	streamhist -window 1024 -buckets 16 -eps 0.1 < values.txt
//	streamhist -gen utilization -points 10000 -report 2500
//	streamhist -gen walk -points 5000 -query 100:900
//	streamhist -span 1h < timestamped.txt   # lines: "<unix-seconds> <value>"
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"streamhist"
	"streamhist/internal/datagen"
)

func main() {
	var (
		window  = flag.Int("window", 1024, "sliding window capacity n")
		buckets = flag.Int("buckets", 16, "histogram bucket budget B")
		eps     = flag.Float64("eps", 0.1, "approximation precision")
		delta   = flag.Float64("delta", 0, "per-level growth factor (default eps/(2B); the paper's experiments use eps)")
		gen     = flag.String("gen", "", "generate input instead of reading stdin: utilization, walk, steps, zipf")
		points  = flag.Int("points", 10000, "points to generate with -gen")
		seed    = flag.Int64("seed", 1, "generator seed")
		report  = flag.Int("report", 0, "print the histogram every N points (0 = only at end)")
		queryS  = flag.String("query", "", "comma-separated lo:hi window ranges to estimate at the end")
		span    = flag.Duration("span", 0, "time-based window: keep points from the trailing span; input lines are '<unix-seconds> <value>'")
	)
	flag.Parse()

	if *span > 0 {
		if *gen != "" {
			fatal(fmt.Errorf("-span reads timestamped stdin; it cannot be combined with -gen"))
		}
		if err := runTimeWindow(os.Stdin, *window, *buckets, *eps, *delta, *span); err != nil {
			fatal(err)
		}
		return
	}

	fw, err := newWindow(*window, *buckets, *eps, *delta)
	if err != nil {
		fatal(err)
	}

	var pushed int64
	push := func(v float64) {
		fw.PushLazy(v)
		pushed++
		if *report > 0 && pushed%int64(*report) == 0 {
			printSummary(fw)
		}
	}

	if *gen != "" {
		g, err := newGenerator(*gen, *seed)
		if err != nil {
			fatal(err)
		}
		for i := 0; i < *points; i++ {
			push(g.Next())
		}
	} else {
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1024*1024), 1024*1024)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			v, err := strconv.ParseFloat(line, 64)
			if err != nil {
				fatal(fmt.Errorf("line %d: %w", pushed+1, err))
			}
			push(v)
		}
		if err := sc.Err(); err != nil {
			fatal(err)
		}
	}
	if pushed == 0 {
		fatal(fmt.Errorf("no input values"))
	}
	printSummary(fw)
	if *queryS != "" {
		if err := answerQueries(fw, *queryS); err != nil {
			fatal(err)
		}
	}
}

// newWindow builds the count-based window over the last n points.
func newWindow(n, b int, eps, delta float64) (*streamhist.FixedWindow, error) {
	return streamhist.NewFixedWindowWithDelta(n, b, eps, growthFactor(b, eps, delta))
}

// newTimeWindow builds the time-based window over the trailing span,
// buffering at most maxPoints points.
func newTimeWindow(maxPoints, b int, eps, delta float64, span time.Duration) (*streamhist.TimeWindow, error) {
	return streamhist.NewTimeWindow(maxPoints, b, eps, growthFactor(b, eps, delta), span)
}

// growthFactor resolves -delta for both window kinds: 0 selects the
// paper's eps/(2B).
func growthFactor(b int, eps, delta float64) float64 {
	if delta == 0 {
		return eps / (2 * float64(b))
	}
	return delta
}

func newGenerator(name string, seed int64) (datagen.Generator, error) {
	switch name {
	case "utilization":
		return datagen.NewUtilization(datagen.UtilizationConfig{Seed: seed, Quantize: true}), nil
	case "walk":
		return datagen.NewRandomWalk(seed, 500, 10, 0, 1000, true)
	case "steps":
		return datagen.NewStepSignal(seed, 100, 0, 1000, 10, true)
	case "zipf":
		return datagen.NewZipf(seed, 1.5, 1000)
	default:
		return nil, fmt.Errorf("unknown generator %q (have utilization, walk, steps, zipf)", name)
	}
}

func printSummary(fw *streamhist.FixedWindow) {
	res, err := fw.Histogram()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("after %d points (window %d..%d): SSE %.1f\n",
		fw.Seen(), fw.WindowStart(), fw.Seen()-1, res.SSE)
	for _, b := range res.Histogram.Buckets {
		fmt.Printf("  [%5d..%5d] ~ %.2f\n", b.Start, b.End, b.Value)
	}
}

func answerQueries(fw *streamhist.FixedWindow, spec string) error {
	res, err := fw.Histogram()
	if err != nil {
		return err
	}
	win := fw.Window()
	for _, part := range strings.Split(spec, ",") {
		var lo, hi int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d:%d", &lo, &hi); err != nil {
			return fmt.Errorf("bad query %q (want lo:hi): %w", part, err)
		}
		if lo < 0 || hi >= len(win) || hi < lo {
			return fmt.Errorf("query %d:%d outside window [0,%d]", lo, hi, len(win)-1)
		}
		exact := 0.0
		for i := lo; i <= hi; i++ {
			exact += win[i]
		}
		est := res.Histogram.EstimateRangeSum(lo, hi)
		fmt.Printf("sum[%d..%d]: estimate %.1f, exact %.1f\n", lo, hi, est, exact)
	}
	return nil
}

// runTimeWindow consumes "<unix-seconds> <value>" lines and maintains a
// time-based window over the trailing span, printing the final summary.
func runTimeWindow(r io.Reader, maxPoints, b int, eps, delta float64, span time.Duration) error {
	tw, err := newTimeWindow(maxPoints, b, eps, delta, span)
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		ts, v, err := parseTimestamped(text)
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		if err := tw.Push(ts, v); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if tw.Len() == 0 {
		return fmt.Errorf("no in-window values")
	}
	res, err := tw.Histogram()
	if err != nil {
		return err
	}
	oldest, _ := tw.OldestTimestamp()
	fmt.Printf("window holds %d points since %s: SSE %.1f\n", tw.Len(), oldest.UTC().Format(time.RFC3339), res.SSE)
	for _, bkt := range res.Histogram.Buckets {
		fmt.Printf("  [%5d..%5d] ~ %.2f\n", bkt.Start, bkt.End, bkt.Value)
	}
	return nil
}

// parseTimestamped splits a "<unix-seconds> <value>" line (space or comma
// separated; the timestamp may be fractional).
func parseTimestamped(text string) (time.Time, float64, error) {
	fields := strings.FieldsFunc(text, func(r rune) bool { return r == ' ' || r == '\t' || r == ',' })
	if len(fields) != 2 {
		return time.Time{}, 0, fmt.Errorf("want '<unix-seconds> <value>', got %q", text)
	}
	sec, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return time.Time{}, 0, fmt.Errorf("bad timestamp %q: %w", fields[0], err)
	}
	v, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return time.Time{}, 0, fmt.Errorf("bad value %q: %w", fields[1], err)
	}
	return time.Unix(0, int64(sec*1e9)), v, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "streamhist:", err)
	os.Exit(1)
}
