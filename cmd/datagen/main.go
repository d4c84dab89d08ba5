// Command datagen writes synthetic stream traces (the substitutes for the
// paper's proprietary AT&T data, see DESIGN.md) to stdout, one value per
// line — suitable for piping into cmd/streamhist.
//
// Usage:
//
//	datagen -gen utilization -points 100000 -seed 7 > trace.txt
//	datagen -gen zipf -points 5000 | streamhist -window 512
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"streamhist/internal/datagen"
)

func main() {
	var (
		gen    = flag.String("gen", "utilization", "generator: utilization, walk, steps, zipf, mixture")
		points = flag.Int("points", 10000, "number of values to emit")
		seed   = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()

	g, err := pick(*gen, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	for i := 0; i < *points; i++ {
		//lint:ignore unchecked-err bufio write errors are sticky and surfaced by the checked Flush below
		fmt.Fprintf(w, "%g\n", g.Next())
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "datagen: writing output:", err)
		os.Exit(1)
	}
}

func pick(name string, seed int64) (datagen.Generator, error) {
	switch name {
	case "utilization":
		return datagen.NewUtilization(datagen.UtilizationConfig{Seed: seed, Quantize: true}), nil
	case "walk":
		return datagen.NewRandomWalk(seed, 500, 10, 0, 1000, true)
	case "steps":
		return datagen.NewStepSignal(seed, 100, 0, 1000, 10, true)
	case "zipf":
		return datagen.NewZipf(seed, 1.5, 1000)
	case "mixture":
		return datagen.NewGaussianMixture(seed, 4, 0, 1000, 30)
	default:
		return nil, fmt.Errorf("unknown generator %q", name)
	}
}
