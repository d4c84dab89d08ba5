package experiments

import (
	"fmt"
	"time"

	"streamhist/internal/agglom"
	"streamhist/internal/core"
	"streamhist/internal/datagen"
	"streamhist/internal/vopt"
)

// Ablations probes the design choices DESIGN.md calls out: (i) sensitivity
// to the per-level growth factor delta; (ii) CreateList by binary search vs
// linear scan; (iii) incremental fixed-window maintenance vs rebuilding an
// agglomerative summary of the window from scratch on every slide (the
// strawman section 4.4 dismisses).
func Ablations(cfg Config) ([]*Table, error) {
	delta, err := ablationDelta(cfg)
	if err != nil {
		return nil, err
	}
	search, err := ablationSearch(cfg)
	if err != nil {
		return nil, err
	}
	rebuild, err := ablationRebuild(cfg)
	if err != nil {
		return nil, err
	}
	return []*Table{delta, search, rebuild}, nil
}

func ablationDelta(cfg Config) (*Table, error) {
	const (
		n   = 256
		b   = 8
		eps = 0.1
	)
	t := &Table{
		ID:    "ablation-delta",
		Title: fmt.Sprintf("delta sensitivity (window n=%d, B=%d): accuracy vs per-point work", n, b),
		Columns: []string{
			"delta", "avg SSE ratio vs opt", "max SSE ratio", "HERROR evals/pt", "intervals (queue 1)",
		},
		Notes: []string{
			"delta = eps/(2B) is the paper's choice; larger delta trades accuracy for speed",
		},
	}
	deltas := []float64{eps / (2 * float64(b)), 0.05, 0.2, 0.5, 1.0}
	steps := 120
	if cfg.Fast {
		steps = 40
	}
	for _, delta := range deltas {
		g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: cfg.Seed + 10, Quantize: true})
		// The cold reference: this table characterizes the delta parameter
		// itself, so the production engine's warm start and probe memo
		// would distort the evals/pt column.
		fw, err := core.NewReference(n, b, eps, delta, false)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			fw.Push(g.Next())
		}
		evals0, _ := fw.Evals()
		var sumRatio, maxRatio float64
		for i := 0; i < steps; i++ {
			fw.Push(g.Next())
			win := fw.Window()
			opt, err := vopt.Error(win, b)
			if err != nil {
				return nil, err
			}
			res, err := fw.Histogram()
			if err != nil {
				return nil, err
			}
			ratio := 1.0
			if opt > 0 {
				ratio = res.SSE / opt
			}
			sumRatio += ratio
			if ratio > maxRatio {
				maxRatio = ratio
			}
		}
		evals1, _ := fw.Evals()
		qs := fw.QueueSizes()
		t.AddRow(
			g4(delta),
			f3(sumRatio/float64(steps)), f3(maxRatio),
			f1(float64(evals1-evals0)/float64(steps)),
			d(qs[0]),
		)
	}
	return t, nil
}

func ablationSearch(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "ablation-search",
		Title: "CreateList endpoint location: binary search (paper) vs linear scan",
		Columns: []string{
			"window n", "delta", "binary evals/pt", "linear evals/pt", "binary us/pt", "linear us/pt",
		},
		Timing: []string{"binary us/pt", "linear us/pt"},
		Notes: []string{
			"binary search costs ~intervals*log n evaluations per level, linear scan ~n;",
			"the advantage appears once the interval count is well below n/log n (large delta or large n),",
			"and reverses in the degenerate small-delta regime where nearly every position is an interval",
		},
	}
	steps := 400
	if cfg.Fast {
		steps = 100
	}
	for _, n := range []int{256, 1024} {
		for _, delta := range []float64{0.03, 0.5} {
			const b = 8
			row := []string{d(n), g4(delta)}
			var evalCells, timeCells []string
			for _, linear := range []bool{false, true} {
				g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: cfg.Seed + 11, Quantize: true})
				// The cold reference for the same reason as the delta table:
				// this compares the paper's two endpoint-location strategies,
				// not the production engine's optimizations layered on top.
				fw, err := core.NewReference(n, b, 0.5, delta, linear)
				if err != nil {
					return nil, err
				}
				for i := 0; i < n; i++ {
					fw.Push(g.Next())
				}
				e0, _ := fw.Evals()
				start := time.Now()
				for i := 0; i < steps; i++ {
					fw.Push(g.Next())
				}
				elapsed := time.Since(start)
				e1, _ := fw.Evals()
				evalCells = append(evalCells, f1(float64(e1-e0)/float64(steps)))
				timeCells = append(timeCells, f1(float64(elapsed.Microseconds())/float64(steps)))
			}
			row = append(row, evalCells[0], evalCells[1], timeCells[0], timeCells[1])
			t.AddRow(row...)
		}
	}
	return t, nil
}

func ablationRebuild(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "ablation-rebuild",
		Title: "incremental fixed-window maintenance vs agglomerative-from-scratch per slide (section 4.4 strawman)",
		Columns: []string{
			"window n", "B", "incremental us/pt", "from-scratch us/pt", "speedup",
		},
		Timing: []string{"incremental us/pt", "from-scratch us/pt", "speedup"},
	}
	steps := 200
	if cfg.Fast {
		steps = 50
	}
	const (
		b   = 8
		eps = 0.5
	)
	for _, n := range []int{256, 1024, 2048} {
		g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: cfg.Seed + 12, Quantize: true})
		fw, err := core.New(n, b, eps)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			fw.Push(g.Next())
		}
		start := time.Now()
		for i := 0; i < steps; i++ {
			fw.Push(g.Next())
		}
		incPer := float64(time.Since(start).Microseconds()) / float64(steps)

		// Strawman: rebuild an agglomerative summary of the whole window
		// on every slide.
		g2 := datagen.NewUtilization(datagen.UtilizationConfig{Seed: cfg.Seed + 12, Quantize: true})
		win := make([]float64, n)
		for i := range win {
			win[i] = g2.Next()
		}
		start = time.Now()
		for i := 0; i < steps; i++ {
			copy(win, win[1:])
			win[n-1] = g2.Next()
			if _, err := agglom.Build(win, b, eps); err != nil {
				return nil, err
			}
		}
		scratchPer := float64(time.Since(start).Microseconds()) / float64(steps)
		speedup := 0.0
		if incPer > 0 {
			speedup = scratchPer / incPer
		}
		t.AddRow(d(n), d(b), f1(incPer), f1(scratchPer), f2(speedup))
	}
	return t, nil
}
