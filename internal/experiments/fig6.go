package experiments

import (
	"fmt"
	"time"

	"streamhist/internal/core"
	"streamhist/internal/datagen"
	"streamhist/internal/query"
	"streamhist/internal/wavelet"
)

// Figure 6 of the paper: fixed-window histograms vs wavelet synopses over a
// stream of real utilization data (here: the synthetic substitute trace).
// Panels (a),(b) report the average range-sum query result per method next
// to the exact answer, for eps = 0.1 and 0.01; panels (c),(d) report the
// elapsed time of per-point incremental maintenance.

// Fig6a reproduces Figure 6(a): accuracy at eps = 0.1.
func Fig6a(cfg Config) ([]*Table, error) { return fig6Accuracy(cfg, "fig6a", 0.1) }

// Fig6b reproduces Figure 6(b): accuracy at eps = 0.01.
func Fig6b(cfg Config) ([]*Table, error) { return fig6Accuracy(cfg, "fig6b", 0.01) }

// Fig6c reproduces Figure 6(c): maintenance time at eps = 0.1.
func Fig6c(cfg Config) ([]*Table, error) { return fig6Time(cfg, "fig6c", 0.1) }

// Fig6d reproduces Figure 6(d): maintenance time at eps = 0.01.
func Fig6d(cfg Config) ([]*Table, error) { return fig6Time(cfg, "fig6d", 0.01) }

func fig6Accuracy(cfg Config, id string, eps float64) ([]*Table, error) {
	t := &Table{
		ID:    id,
		Title: fmt.Sprintf("range-sum accuracy on a data stream, eps=%g (avg over %d random queries x %d checkpoints)", eps, cfg.Queries, cfg.Checkpoints),
		Columns: []string{
			"window n", "B", "exact avg", "hist avg", "wavelet avg",
			"hist MAE", "wavelet MAE", "MAE ratio (wav/hist)",
		},
		Notes: []string{
			"paper shape: histogram tracks the exact series closely; wavelet deviates substantially",
			fmt.Sprintf("stream: %d synthetic utilization points (substitute for the paper's 1M AT&T trace)", cfg.Points),
		},
	}
	for _, n := range cfg.AccWindows {
		if n >= cfg.Points {
			continue
		}
		for _, b := range cfg.Buckets {
			row, err := fig6AccuracyCell(cfg, n, b, eps)
			if err != nil {
				return nil, err
			}
			t.AddRow(row...)
		}
	}
	return []*Table{t}, nil
}

func fig6AccuracyCell(cfg Config, n, b int, eps float64) ([]string, error) {
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: cfg.Seed, Quantize: true})
	// The growth factor is eps itself, following the paper's worked
	// Example 1 and its reported running times; eps/(2B) is the
	// worst-case-proof setting (see EXPERIMENTS.md).
	fw, err := core.NewWithDelta(n, b, eps, eps)
	if err != nil {
		return nil, err
	}
	syn := &wavelet.Synopsis{}
	// Checkpoints are spread evenly over the post-fill stream.
	step := (cfg.Points - n) / cfg.Checkpoints
	if step < 1 {
		step = 1
	}
	var exactAvg, histAvg, wavAvg float64
	var histMAE, wavMAE float64
	checks := 0
	for i := 0; i < cfg.Points; i++ {
		fw.PushLazy(g.Next())
		if i < n-1 || (i-n+1)%step != 0 || checks >= cfg.Checkpoints {
			continue
		}
		checks++
		win := fw.Window()
		queries, err := query.RandomRanges(cfg.Seed+int64(i), cfg.Queries, len(win))
		if err != nil {
			return nil, err
		}
		res, err := fw.Histogram()
		if err != nil {
			return nil, err
		}
		if err := syn.Rebuild(win, b); err != nil {
			return nil, err
		}
		histM := query.Evaluate(res.Histogram, win, queries)
		wavM := query.Evaluate(syn, win, queries)
		histMAE += histM.MAE
		wavMAE += wavM.MAE
		// Average query result per method (the paper's plotted quantity).
		exactSum, histSum, wavSum := 0.0, 0.0, 0.0
		truth := query.EstimatorFunc(func(lo, hi int) float64 {
			s := 0.0
			for j := lo; j <= hi; j++ {
				s += win[j]
			}
			return s
		})
		for _, q := range queries {
			exactSum += truth.EstimateRangeSum(q.Lo, q.Hi)
			histSum += res.Histogram.EstimateRangeSum(q.Lo, q.Hi)
			wavSum += syn.EstimateRangeSum(q.Lo, q.Hi)
		}
		exactAvg += exactSum / float64(len(queries))
		histAvg += histSum / float64(len(queries))
		wavAvg += wavSum / float64(len(queries))
	}
	if checks == 0 {
		return nil, fmt.Errorf("no checkpoints for n=%d", n)
	}
	c := float64(checks)
	ratio := 0.0
	if histMAE > 0 {
		ratio = wavMAE / histMAE
	}
	return []string{
		d(n), d(b),
		f1(exactAvg / c), f1(histAvg / c), f1(wavAvg / c),
		f1(histMAE / c), f1(wavMAE / c), f2(ratio),
	}, nil
}

func fig6Time(cfg Config, id string, eps float64) ([]*Table, error) {
	t := &Table{
		ID:    id,
		Title: fmt.Sprintf("per-point maintenance time, eps=%g (%d timed slides per cell)", eps, cfg.TimedPoints),
		Columns: []string{
			"window n", "B", "hist total (s)", "hist us/pt", "wavelet us/pt", "slowdown (wav/hist)",
		},
		Timing: []string{"hist total (s)", "hist us/pt", "wavelet us/pt", "slowdown (wav/hist)"},
		Notes: []string{
			"hist = FixedWindowHistogram per-point rebuild (Figure 5); wavelet = from-scratch top-B recompute per slide",
			"paper shape: histogram time grows with B and 1/eps; the wavelet rebuild grows linearly in n,",
			"so the histogram pulls ahead with window size at eps=0.1 and cedes at eps=0.01 — the",
			"accuracy/speed tradeoff the paper advertises (its own timings correspond to the fast regime)",
		},
	}
	for _, n := range cfg.TimeWindows {
		for _, b := range cfg.Buckets {
			row, err := fig6TimeCell(cfg, n, b, eps)
			if err != nil {
				return nil, err
			}
			t.AddRow(row...)
		}
	}
	return []*Table{t}, nil
}

func fig6TimeCell(cfg Config, n, b int, eps float64) ([]string, error) {
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: cfg.Seed, Quantize: true})
	fw, err := core.NewWithDelta(n, b, eps, eps)
	if err != nil {
		return nil, err
	}
	// Fill the window without timing (lazily: only the timed section pays
	// for per-point maintenance).
	for i := 0; i < n; i++ {
		fw.PushLazy(g.Next())
	}
	start := time.Now()
	for i := 0; i < cfg.TimedPoints; i++ {
		fw.Push(g.Next())
	}
	histElapsed := time.Since(start)

	// Wavelet baseline: rebuild the synopsis from scratch per slide.
	g2 := datagen.NewUtilization(datagen.UtilizationConfig{Seed: cfg.Seed, Quantize: true})
	win := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		win = append(win, g2.Next())
	}
	syn := &wavelet.Synopsis{}
	wavTimed := cfg.TimedPoints
	if wavTimed > 500 {
		wavTimed = 500 // the rebuild is slow; extrapolate from 500 slides
	}
	start = time.Now()
	for i := 0; i < wavTimed; i++ {
		copy(win, win[1:])
		win[n-1] = g2.Next()
		if err := syn.Rebuild(win, b); err != nil {
			return nil, err
		}
	}
	wavElapsed := time.Since(start)

	histPer := float64(histElapsed.Microseconds()) / float64(cfg.TimedPoints)
	wavPer := float64(wavElapsed.Microseconds()) / float64(wavTimed)
	slow := 0.0
	if histPer > 0 {
		slow = wavPer / histPer
	}
	return []string{
		d(n), d(b),
		f3(histElapsed.Seconds()), f1(histPer), f1(wavPer), f2(slow),
	}, nil
}
