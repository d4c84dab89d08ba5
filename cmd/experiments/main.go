// Command experiments regenerates the figures and tables of Guha & Koudas
// (ICDE 2002) as described in EXPERIMENTS.md.
//
// Usage:
//
//	experiments -run fig6a            # one experiment
//	experiments -run all              # everything (about 1.5 minutes)
//	experiments -run fig6c -fast      # shrunk smoke run
//	experiments -list                 # show experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"streamhist/internal/experiments"
)

func main() {
	var (
		run         = flag.String("run", "all", "experiment id to run, or 'all'")
		list        = flag.Bool("list", false, "list experiment ids and exit")
		points      = flag.Int("points", 0, "stream length for accuracy panels (default 20000)")
		timedPoints = flag.Int("timed", 0, "timed slides for the time panels (default 600)")
		queries     = flag.Int("queries", 0, "random queries per checkpoint (default 400)")
		checkpoints = flag.Int("checkpoints", 0, "accuracy checkpoints per run (default 8)")
		seed        = flag.Int64("seed", 0, "base random seed (default 2002)")
		fast        = flag.Bool("fast", false, "shrink every size not set by a flag, for a quick smoke run")
		format      = flag.String("format", "text", "output format: text or csv")
		outdir      = flag.String("outdir", "", "write one CSV per table into this directory instead of stdout")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.Names(), "\n"))
		return
	}
	cfg := experiments.Config{
		Points:      *points,
		TimedPoints: *timedPoints,
		Queries:     *queries,
		Checkpoints: *checkpoints,
		Seed:        *seed,
		Fast:        *fast,
	}
	if *outdir != "" {
		if err := experiments.RunToDir(*run, cfg, *outdir); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	runner := experiments.Run
	switch *format {
	case "text":
	case "csv":
		runner = experiments.RunCSV
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown format %q (text, csv)\n", *format)
		os.Exit(1)
	}
	if err := runner(*run, cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
