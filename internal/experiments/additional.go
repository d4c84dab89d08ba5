package experiments

import (
	"fmt"
	"time"

	"streamhist/internal/agglom"
	"streamhist/internal/datagen"
	"streamhist/internal/histogram"
	"streamhist/internal/query"
	"streamhist/internal/vopt"
	"streamhist/internal/warehouse"
	"streamhist/internal/wavelet"
)

// AgglomVsWavelet reproduces the first additional experiment of section
// 5.2: agglomerative stream histograms vs wavelet synopses on whole-stream
// range-sum queries, on accuracy and construction time.
func AgglomVsWavelet(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:    "agglom-wavelet",
		Title: fmt.Sprintf("agglomerative histogram vs wavelet on a %d-point stream", cfg.Points),
		Columns: []string{
			"B", "eps", "agglom MAE", "wavelet MAE", "agglom build (ms)", "wavelet build (ms)", "endpoints stored",
		},
		Timing: []string{"agglom build (ms)", "wavelet build (ms)"},
		Notes: []string{
			"paper shape: agglomerative accuracy beats the wavelet at equal bucket budget (2-4x lower MAE);",
			"the one-pass build is costlier than a single in-memory wavelet transform at these sizes, but",
			"unlike the wavelet it never stores the stream — 'endpoints stored' is its entire working set",
		},
	}
	data := datagen.Series(datagen.NewUtilization(datagen.UtilizationConfig{Seed: cfg.Seed + 1, Quantize: true}), cfg.Points)
	queries, err := query.RandomRanges(cfg.Seed+2, cfg.Queries, len(data))
	if err != nil {
		return nil, err
	}
	for _, b := range []int{8, 16} {
		for _, eps := range []float64{0.5, 0.1} {
			s, err := agglom.New(b, eps)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			for _, v := range data {
				s.Push(v)
			}
			res, err := s.Histogram()
			if err != nil {
				return nil, err
			}
			agglomBuild := time.Since(start)

			start = time.Now()
			syn, err := wavelet.Build(data, b)
			if err != nil {
				return nil, err
			}
			wavBuild := time.Since(start)

			aM := query.Evaluate(res.Histogram, data, queries)
			wM := query.Evaluate(syn, data, queries)
			t.AddRow(
				d(b), g4(eps),
				f1(aM.MAE), f1(wM.MAE),
				f2(float64(agglomBuild.Microseconds())/1000),
				f2(float64(wavBuild.Microseconds())/1000),
				d(s.StoredEndpoints()),
			)
		}
	}
	return []*Table{t}, nil
}

// AgglomVsOptimal reproduces the second additional experiment of section
// 5.2: the one-pass agglomerative construction against the optimal
// quadratic algorithm of Jagadish et al. — comparable accuracy, and
// construction-time savings that grow with the dataset size.
func AgglomVsOptimal(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:    "agglom-opt",
		Title: "agglomerative (one pass) vs optimal [JKM+98] histogram construction",
		Columns: []string{
			"n", "B", "eps", "SSE ratio (agglom/opt)", "opt build (ms)", "agglom build (ms)", "speedup",
		},
		Timing: []string{"opt build (ms)", "agglom build (ms)", "speedup"},
		Notes: []string{
			"paper shape: SSE ratio <= 1+eps; speedup grows with n (quadratic vs near-linear)",
		},
	}
	sizes := []int{1000, 2000, 4000, 8000}
	if cfg.Fast {
		sizes = []int{500, 1000, 2000}
	}
	const b = 16
	for _, n := range sizes {
		data := datagen.Series(datagen.NewUtilization(datagen.UtilizationConfig{Seed: cfg.Seed + 3, Quantize: true}), n)
		start := time.Now()
		opt, err := vopt.Build(data, b)
		if err != nil {
			return nil, err
		}
		optBuild := time.Since(start)
		for _, eps := range []float64{0.1, 0.01} {
			start = time.Now()
			res, err := agglom.Build(data, b, eps)
			if err != nil {
				return nil, err
			}
			aBuild := time.Since(start)
			ratio := 1.0
			if opt.SSE > 0 {
				ratio = res.SSE / opt.SSE
			}
			speedup := float64(optBuild) / float64(aBuild)
			t.AddRow(
				d(n), d(b), g4(eps),
				f3(ratio),
				f2(float64(optBuild.Microseconds())/1000),
				f2(float64(aBuild.Microseconds())/1000),
				f1(speedup),
			)
		}
	}
	return []*Table{t}, nil
}

// Warehouse reproduces the approximate-query-answering-in-a-warehouse
// experiment of section 5.2: summarize a stored column once, answer
// range-sum queries from the summary.
func Warehouse(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:    "warehouse",
		Title: "approximate range-sum queries on a stored warehouse column",
		Columns: []string{
			"rows", "B", "method", "MAE", "MRE", "build (ms)",
		},
		Timing: []string{"build (ms)"},
		Notes: []string{
			"paper shape: agglomerative accuracy comparable to optimal; construction savings grow with size",
		},
	}
	sizes := []int{2000, 5000}
	if cfg.Fast {
		sizes = []int{1000}
	}
	for _, n := range sizes {
		data := datagen.Series(datagen.NewUtilization(datagen.UtilizationConfig{Seed: cfg.Seed + 4, Quantize: true}), n)
		col, err := warehouse.NewColumn("utilization", data)
		if err != nil {
			return nil, err
		}
		queries, err := query.RandomRanges(cfg.Seed+5, cfg.Queries, n)
		if err != nil {
			return nil, err
		}
		for _, b := range []int{16, 32} {
			optBuilder := func(data []float64, b int) (*histogram.Histogram, error) {
				res, err := vopt.Build(data, b)
				if err != nil {
					return nil, err
				}
				return res.Histogram, nil
			}
			summaries := []struct {
				method string
				build  warehouse.Builder
			}{
				{"optimal", optBuilder},
				{"agglom eps=0.1", agglomBuilder(0.1)},
				{"agglom eps=0.01", agglomBuilder(0.01)},
				{"equal-width", histogram.EqualWidth},
				{"equal-depth", histogram.EqualDepth},
			}
			for _, sm := range summaries {
				s, err := warehouse.Summarize(col, b, sm.method, sm.build)
				if err != nil {
					return nil, err
				}
				m := s.Evaluate(queries)
				t.AddRow(d(n), d(b), sm.method, f1(m.MAE), f3(m.MRE), f2(float64(s.BuildTime.Microseconds())/1000))
			}
		}
	}
	return []*Table{t}, nil
}

func agglomBuilder(eps float64) warehouse.Builder {
	return func(data []float64, b int) (*histogram.Histogram, error) {
		res, err := agglom.Build(data, b, eps)
		if err != nil {
			return nil, err
		}
		return res.Histogram, nil
	}
}
