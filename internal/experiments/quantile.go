package experiments

import (
	"fmt"
	"math/rand"

	"streamhist/internal/datagen"
	"streamhist/internal/quantile"
	"streamhist/internal/vhist"
)

// QuantileExtension is the related-work extension experiment on the
// daemon's value-domain summaries: the Greenwald-Khanna quantile summary
// behind /quantile, and the streaming equi-depth histogram behind
// /selectivity, each scored against exact answers on the utilization
// stream the histogram experiments use.
func QuantileExtension(cfg Config) ([]*Table, error) {
	q, err := quantileGK(cfg)
	if err != nil {
		return nil, err
	}
	sel, err := valueSelectivity(cfg)
	if err != nil {
		return nil, err
	}
	return []*Table{q, sel}, nil
}

func quantileGK(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "quantile",
		Title: fmt.Sprintf("streaming quantiles on a %d-point stream (extension; related work GK01/SRL98)", cfg.Points),
		Columns: []string{
			"method", "space", "max rank err (frac of n)", "median est", "median true",
		},
	}
	data := datagen.Series(datagen.NewUtilization(datagen.UtilizationConfig{Seed: cfg.Seed + 6, Quantize: true}), cfg.Points)
	gk, err := quantile.NewGK(0.01)
	if err != nil {
		return nil, err
	}
	for _, v := range data {
		gk.Insert(v)
	}
	maxErr := 0.0
	var medianEst float64
	for _, phi := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		v, err := gk.Query(phi)
		if err != nil {
			return nil, err
		}
		if phi == 0.5 {
			medianEst = v
		}
		// The stream is integer-quantized, so values repeat heavily; a
		// returned value occupies the whole rank interval
		// [count(<v)+1, count(<=v)] and only the distance from the
		// target to that interval is the summary's error.
		rankHi := quantile.RankOf(data, v)
		ties := 0
		for _, x := range data {
			if x == v {
				ties++
			}
		}
		rankLo := rankHi - ties + 1
		target := int(phi * float64(len(data)))
		if target < 1 {
			target = 1
		}
		e := 0
		switch {
		case target < rankLo:
			e = rankLo - target
		case target > rankHi:
			e = target - rankHi
		}
		if fe := float64(e) / float64(len(data)); fe > maxErr {
			maxErr = fe
		}
	}
	t.AddRow("GK eps=0.01", d(gk.Size()), f3(maxErr), f1(medianEst), f1(quantile.ExactQuantile(data, 0.5)))
	return t, nil
}

// valueSelectivity scores value-domain histograms on random BETWEEN
// predicates against exact selectivities.
func valueSelectivity(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "ext-selectivity",
		Title: fmt.Sprintf("value-histogram selectivity estimation (%d rows, %d random predicates)", cfg.Points, cfg.Queries),
		Columns: []string{
			"B", "method", "mean abs sel err", "max abs sel err", "space",
		},
	}
	data := datagen.Series(datagen.NewUtilization(datagen.UtilizationConfig{Seed: cfg.Seed + 21, Quantize: true}), cfg.Points)
	rng := rand.New(rand.NewSource(cfg.Seed + 22))
	type pred struct{ lo, hi float64 }
	preds := make([]pred, cfg.Queries)
	for i := range preds {
		lo := rng.Float64() * 1000
		hi := lo + rng.Float64()*(1000-lo)
		preds[i] = pred{lo, hi}
	}
	for _, b := range []int{16, 64} {
		ew, err := vhist.EqualWidth(data, b)
		if err != nil {
			return nil, err
		}
		ed, err := vhist.ExactEqualDepth(data, b)
		if err != nil {
			return nil, err
		}
		sed, err := vhist.NewStreamingEqualDepth(b, 0.25/float64(b))
		if err != nil {
			return nil, err
		}
		for _, v := range data {
			sed.Push(v)
		}
		sh, err := sed.Histogram()
		if err != nil {
			return nil, err
		}
		for _, m := range []struct {
			name  string
			h     *vhist.VHistogram
			space int
		}{
			{"equal-width (full scan)", ew, b},
			{"equal-depth (sort)", ed, b},
			{"streaming equal-depth (GK)", sh, sed.Space()},
		} {
			var sum, max float64
			for _, p := range preds {
				e := m.h.Selectivity(p.lo, p.hi) - vhist.ExactSelectivity(data, p.lo, p.hi)
				if e < 0 {
					e = -e
				}
				sum += e
				if e > max {
					max = e
				}
			}
			t.AddRow(d(b), m.name, f3(sum/float64(len(preds))), f3(max), d(m.space))
		}
	}
	return t, nil
}
