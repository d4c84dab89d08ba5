package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"streamhist/internal/agglom"
	"streamhist/internal/apca"
	"streamhist/internal/datagen"
	"streamhist/internal/histogram"
	"streamhist/internal/segment"
	"streamhist/internal/similarity"
	"streamhist/internal/vopt"
)

// Similarity reproduces the section 5.2 time-series similarity experiment:
// collections of series are approximated with B segments by (i) our
// V-optimal histogram constructions and (ii) APCA of Keogh et al.; range
// queries are filtered through the lower-bounding distance, and the false
// positives each representation admits are counted, for both whole-series
// matching and subsequence matching.
func Similarity(cfg Config) ([]*Table, error) {
	whole, err := similarityTable(cfg, "similarity-whole", "whole-series matching", wholeCorpus(cfg))
	if err != nil {
		return nil, err
	}
	subs, err := subsequenceCorpus(cfg)
	if err != nil {
		return nil, err
	}
	subTable, err := similarityTable(cfg, "similarity-subseq", "subsequence matching (stride 64)", subs)
	if err != nil {
		return nil, err
	}
	return []*Table{whole, subTable}, nil
}

func wholeCorpus(cfg Config) [][]float64 {
	count, length := 100, 128
	if cfg.Fast {
		count = 30
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	// Step-structured series with per-series change points and levels:
	// the value distribution over time is what the adaptive segmentations
	// must capture, and each series demands different boundaries.
	out := make([][]float64, count)
	for i := range out {
		s := make([]float64, length)
		level := rng.Float64() * 500
		for j := range s {
			if rng.Float64() < 0.06 {
				level = rng.Float64() * 500
			}
			s[j] = level + rng.NormFloat64()*8
		}
		out[i] = s
	}
	return out
}

func subsequenceCorpus(cfg Config) ([][]float64, error) {
	long := 12000
	if cfg.Fast {
		long = 4000
	}
	series := datagen.Series(datagen.NewUtilization(datagen.UtilizationConfig{Seed: cfg.Seed + 8, Quantize: true}), long)
	return similarity.SlidingSubsequences(series, 128, 64)
}

func similarityTable(cfg Config, id, title string, corpus [][]float64) (*Table, error) {
	t := &Table{
		ID:    id,
		Title: fmt.Sprintf("%s: %d series of length %d, B=8 segments", title, len(corpus), len(corpus[0])),
		Columns: []string{
			"method", "avg candidates", "avg matches", "avg false pos", "FP rate", "false dismissals", "index build (ms)",
		},
		Timing: []string{"index build (ms)"},
		Notes: []string{
			"radius per query set to the 10th-percentile true distance, so ~10% of the corpus matches",
			"paper shape: V-optimal approximations admit fewer false positives than APCA at equal budget",
		},
	}
	const b = 8
	builders := []struct {
		name  string
		build similarity.Builder
	}{
		{"vopt histogram", func(s []float64, b int) (*histogram.Histogram, error) {
			res, err := vopt.Build(s, b)
			if err != nil {
				return nil, err
			}
			return res.Histogram, nil
		}},
		{"agglom eps=0.1", func(s []float64, b int) (*histogram.Histogram, error) {
			res, err := agglom.Build(s, b, 0.1)
			if err != nil {
				return nil, err
			}
			return res.Histogram, nil
		}},
		{"APCA", apca.Build},
		{"bottom-up", segment.BottomUp},
		{"top-down", segment.TopDown},
	}

	// Query workload: perturbed corpus members, radius at the 10th
	// percentile of true distances for each query.
	rng := rand.New(rand.NewSource(cfg.Seed + 9))
	numQueries := 15
	if cfg.Fast {
		numQueries = 5
	}
	type workload struct {
		q      []float64
		radius float64
	}
	queries := make([]workload, 0, numQueries)
	for i := 0; i < numQueries; i++ {
		src := corpus[rng.Intn(len(corpus))]
		q := make([]float64, len(src))
		for j := range q {
			q[j] = src[j] + rng.NormFloat64()*10
		}
		dists := make([]float64, len(corpus))
		for j, s := range corpus {
			d, err := similarity.Euclidean(q, s)
			if err != nil {
				return nil, err
			}
			dists[j] = d
		}
		sort.Float64s(dists)
		radius := dists[len(dists)/10]
		queries = append(queries, workload{q, radius})
	}

	for _, builder := range builders {
		start := time.Now()
		idx, err := similarity.NewIndex(corpus, b, builder.build)
		if err != nil {
			return nil, err
		}
		buildTime := time.Since(start)
		var cands, matches, fps, dismissed float64
		for _, w := range queries {
			res, err := idx.RangeQuery(w.q, w.radius)
			if err != nil {
				return nil, err
			}
			cands += float64(len(res.Candidates))
			matches += float64(len(res.Matches))
			fps += float64(res.FalsePositives)
			dismissed += float64(res.FalseDismissed)
		}
		nq := float64(len(queries))
		fpRate := 0.0
		if cands > 0 {
			fpRate = fps / cands
		}
		t.AddRow(
			builder.name,
			f1(cands/nq), f1(matches/nq), f1(fps/nq), f3(fpRate), f1(dismissed),
			f2(float64(buildTime.Microseconds())/1000),
		)
	}
	return t, nil
}
