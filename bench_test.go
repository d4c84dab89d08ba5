// Benchmark harness: one benchmark per figure/table of the paper's
// evaluation (see DESIGN.md's per-experiment index), plus micro-benchmarks
// of the core operations. The experiment tables themselves are produced by
// cmd/experiments; these benchmarks measure the underlying costs with the
// standard testing.B machinery and report accuracy figures as custom
// metrics where relevant.
package streamhist_test

import (
	"fmt"
	"testing"

	"streamhist"
	"streamhist/internal/agglom"
	"streamhist/internal/apca"
	"streamhist/internal/core"
	"streamhist/internal/datagen"
	"streamhist/internal/histogram"
	"streamhist/internal/prefix"
	"streamhist/internal/quantile"
	"streamhist/internal/query"
	"streamhist/internal/similarity"
	"streamhist/internal/vopt"
	"streamhist/internal/wavelet"
)

func utilization(n int, seed int64) []float64 {
	return datagen.Series(datagen.NewUtilization(datagen.UtilizationConfig{Seed: seed, Quantize: true}), n)
}

// BenchmarkFig6Maintenance measures the per-point cost of fixed-window
// maintenance (Figure 6(c),(d)): one iteration = one stream point pushed
// through the full Figure 5 rebuild. eps doubles as the growth factor, as
// in the paper's experiments.
func BenchmarkFig6Maintenance(b *testing.B) {
	for _, eps := range []float64{0.1, 0.01} {
		for _, n := range []int{2048, 8192} {
			for _, buckets := range []int{8, 16} {
				name := fmt.Sprintf("eps=%g/n=%d/B=%d", eps, n, buckets)
				b.Run(name, func(b *testing.B) {
					g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 1, Quantize: true})
					fw, err := core.NewWithDelta(n, buckets, eps, eps)
					if err != nil {
						b.Fatal(err)
					}
					// Fill lazily; only the timed loop pays for
					// per-point maintenance.
					for i := 0; i < n; i++ {
						fw.PushLazy(g.Next())
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						fw.Push(g.Next())
					}
				})
			}
		}
	}
}

// BenchmarkFig6WaveletRebuild is the Figure 6(c),(d) baseline: the
// from-scratch top-B wavelet recompute per window slide.
func BenchmarkFig6WaveletRebuild(b *testing.B) {
	for _, n := range []int{2048, 8192} {
		for _, buckets := range []int{8, 16} {
			b.Run(fmt.Sprintf("n=%d/B=%d", n, buckets), func(b *testing.B) {
				g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 1, Quantize: true})
				win := datagen.Series(g, n)
				syn := &wavelet.Synopsis{}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(win, win[1:])
					win[n-1] = g.Next()
					if err := syn.Rebuild(win, buckets); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig6Accuracy measures query answering from the maintained
// histogram (Figure 6(a),(b)) and reports the observed mean absolute error
// of random range sums as a custom metric, for both the histogram and the
// wavelet synopsis over the same window.
func BenchmarkFig6Accuracy(b *testing.B) {
	for _, eps := range []float64{0.1, 0.01} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			const (
				n       = 2048
				buckets = 16
			)
			fw, err := core.NewWithDelta(n, buckets, eps, eps)
			if err != nil {
				b.Fatal(err)
			}
			g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 2, Quantize: true})
			for i := 0; i < n; i++ {
				fw.PushLazy(g.Next())
			}
			res, err := fw.Histogram()
			if err != nil {
				b.Fatal(err)
			}
			win := fw.Window()
			queries, err := query.RandomRanges(3, 400, n)
			if err != nil {
				b.Fatal(err)
			}
			syn, err := wavelet.Build(win, buckets)
			if err != nil {
				b.Fatal(err)
			}
			histM := query.Evaluate(res.Histogram, win, queries)
			wavM := query.Evaluate(syn, win, queries)
			b.ReportMetric(histM.MAE, "histMAE")
			b.ReportMetric(wavM.MAE, "wavMAE")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				res.Histogram.EstimateRangeSum(q.Lo, q.Hi)
			}
		})
	}
}

// agglomSink keeps benchmarked agglomerative summaries observable.
var agglomSink float64

// BenchmarkAgglomVsWavelet covers the section 5.2 agglomerative-vs-wavelet
// experiment: one-pass summary construction throughput for both methods.
// The agglomerative per-point cost grows with stream age, so each
// agglom-push op builds a fresh summary over a fixed seeded stream of
// the named age and reports the mean cost per point.
func BenchmarkAgglomVsWavelet(b *testing.B) {
	const buckets = 16
	for _, age := range []int{4096, 16384} {
		data := utilization(age, 4)
		b.Run(fmt.Sprintf("agglom-push/age=%d", age), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := agglom.New(buckets, 0.1)
				if err != nil {
					b.Fatal(err)
				}
				for _, v := range data {
					s.Push(v)
				}
				agglomSink = s.ApproxError()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*len(data)), "us/point")
		})
	}
	b.Run("wavelet-build-50k", func(b *testing.B) {
		data := utilization(50000, 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := wavelet.Build(data, buckets); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAgglomVsOptimal covers the section 5.2 construction-time
// comparison against the quadratic optimal algorithm.
func BenchmarkAgglomVsOptimal(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		data := utilization(n, 5)
		b.Run(fmt.Sprintf("optimal/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := vopt.Build(data, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("agglom/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := agglom.Build(data, 16, 0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimilarity covers the section 5.2 similarity experiment:
// approximation construction and lower-bound filtering for V-optimal
// histograms vs APCA.
func BenchmarkSimilarity(b *testing.B) {
	series := utilization(128, 6)
	b.Run("approx-vopt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := vopt.Build(series, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("approx-apca", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := apca.Build(series, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lower-bound", func(b *testing.B) {
		res, err := vopt.Build(series, 8)
		if err != nil {
			b.Fatal(err)
		}
		q := utilization(128, 7)
		qs := prefix.NewSums(q)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := similarity.LowerBound(qs, res.Histogram); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWarehouse covers the warehouse experiment: answering range-sum
// queries from a precomputed summary.
func BenchmarkWarehouse(b *testing.B) {
	data := utilization(5000, 8)
	res, err := agglom.Build(data, 32, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	queries, err := query.RandomRanges(9, 1000, len(data))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		res.Histogram.EstimateRangeSum(q.Lo, q.Hi)
	}
}

// BenchmarkAblationSearch compares the reference CreateList's binary
// search against its linear-scan ablation at a regime where the interval
// cover is sparse.
func BenchmarkAblationSearch(b *testing.B) {
	for _, linear := range []bool{false, true} {
		name := "binary"
		if linear {
			name = "linear"
		}
		b.Run(name, func(b *testing.B) {
			g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 10, Quantize: true})
			fw, err := core.NewReference(1024, 8, 0.5, 0.5, linear)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 1024; i++ {
				fw.Push(g.Next())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fw.Push(g.Next())
			}
		})
	}
}

// BenchmarkAblationDelta shows the accuracy/speed tradeoff knob: per-point
// maintenance cost across growth factors.
func BenchmarkAblationDelta(b *testing.B) {
	for _, delta := range []float64{0.00625, 0.1, 0.5} {
		b.Run(fmt.Sprintf("delta=%g", delta), func(b *testing.B) {
			g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 11, Quantize: true})
			fw, err := core.NewWithDelta(512, 8, 0.1, delta)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 512; i++ {
				fw.Push(g.Next())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fw.Push(g.Next())
			}
		})
	}
}

// --- micro-benchmarks of the substrates ---

func BenchmarkSlidingSumsPush(b *testing.B) {
	s, err := prefix.NewSlidingSums(4096)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(float64(i % 1000))
	}
}

func BenchmarkVoptBuild(b *testing.B) {
	data := utilization(1000, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vopt.Build(data, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWaveletTransform(b *testing.B) {
	data := utilization(4096, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wavelet.Transform(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHistogramRangeSum(b *testing.B) {
	data := utilization(4096, 14)
	h, err := histogram.EqualWidth(data, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.EstimateRangeSum(i%2048, 2048+i%2048)
	}
}

func BenchmarkGKInsert(b *testing.B) {
	s, err := quantile.NewGK(0.01)
	if err != nil {
		b.Fatal(err)
	}
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 15})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(g.Next())
	}
}

func BenchmarkPublicAPIRoundTrip(b *testing.B) {
	// End-to-end through the facade: push + periodic query.
	fw, err := streamhist.NewFixedWindow(1024, 12, 0.1, streamhist.WithDelta(0.1))
	if err != nil {
		b.Fatal(err)
	}
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 16, Quantize: true})
	for i := 0; i < 1024; i++ {
		fw.PushLazy(g.Next())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.PushLazy(g.Next())
		if i%256 == 0 {
			if _, err := fw.Histogram(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
