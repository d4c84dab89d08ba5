package core

import (
	"math/rand"
	"runtime"
	"testing"

	"streamhist/internal/datagen"
)

// Modest sizes keep `go test -bench` quick; the gates below hold the
// headline configuration.
const (
	benchN       = 1024
	benchBuckets = 8
	benchEps     = 0.1
	benchDelta   = 0.1
)

// benchPush measures steady-state Push cost of one maintainer: the window
// is already full, so every push slides and maintains.
func benchPush(b *testing.B, fw interface{ Push(float64) }) {
	rng := rand.New(rand.NewSource(17))
	vals := make([]float64, 4*benchN)
	for i := range vals {
		// Quantized utilization-style values: plateaus with jumps, the
		// regime the paper's Utilization workload models.
		vals[i] = float64(rng.Intn(100))
	}
	for i := 0; i < benchN; i++ {
		fw.Push(vals[i%len(vals)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.Push(vals[i%len(vals)])
	}
}

func benchWindow(b *testing.B, incr bool) *FixedWindow {
	fw, err := NewWithDelta(benchN, benchBuckets, benchEps, benchDelta)
	if err != nil {
		b.Fatal(err)
	}
	fw.SetIncrementalRebuild(incr)
	return fw
}

// BenchmarkPushReference measures the cold CreateList oracle.
func BenchmarkPushReference(b *testing.B) {
	ref, err := NewReference(benchN, benchBuckets, benchEps, benchDelta, false)
	if err != nil {
		b.Fatal(err)
	}
	benchPush(b, ref)
}

// BenchmarkPushExact measures the production exact rebuild: warm-started,
// memoized CreateList.
func BenchmarkPushExact(b *testing.B) { benchPush(b, benchWindow(b, false)) }

// BenchmarkPushIncremental measures the incremental cover-repair path at
// the same sizes. Scheduled exact rebuilds (every K passes) are inside the
// measured loop, so the number reported is the honest amortized per-push
// cost, not the cost of a repair-only pass.
func BenchmarkPushIncremental(b *testing.B) { benchPush(b, benchWindow(b, true)) }

// BenchmarkPushIncrementalAmortized streams a long, continuous sequence
// (64k points by default — always a multiple of the full-rebuild period
// times several, so the K-schedule is fairly represented) through a full
// window and reports the amortized per-push cost explicitly. Unlike the
// op-at-a-time variants, one benchmark iteration is the WHOLE stream:
// trajectory comparisons across engines read the ns/push metric.
func BenchmarkPushIncrementalAmortized(b *testing.B) {
	const (
		n      = 4096
		bkts   = 12
		eps    = 0.1
		stream = 64 * 1024
	)
	fw, err := New(n, bkts, eps) // default delta = eps/(2B), as the headline gates use
	if err != nil {
		b.Fatal(err)
	}
	fw.SetIncrementalRebuild(true)
	rng := rand.New(rand.NewSource(17))
	vals := make([]float64, stream)
	for i := range vals {
		vals[i] = float64(rng.Intn(100))
	}
	for i := 0; i < n; i++ {
		fw.Push(vals[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range vals {
			fw.Push(v)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stream), "ns/push")
}

// The gates below hold the rebuild engines at the headline configuration
// n=4096, B=12, eps=0.1 with the paper's growth factor delta = eps/(2B),
// over the quantized utilization trace with seed 17. They count work and
// allocations instead of timing pushes, so an unchanged tree passes them
// on any machine; wall-clock push cost is measured end to end by
// perfbench's dashboard workload, where the flush is most of a query.
const (
	headN       = 4096
	headBuckets = 12
	headEps     = 0.1
)

// gateValues is the stream every gate pushes.
func gateValues(n int) []float64 {
	return datagen.Series(datagen.NewUtilization(datagen.UtilizationConfig{Seed: 17, Quantize: true}), n)
}

// gateWindow returns a maintainer at the default growth factor;
// incremental selects the cover-repair engine. The gates fill its window
// with one PushBatch, so every later push slides the window, and the
// incremental engine's first fallback period starts at that rebuild.
func gateWindow(t *testing.T, n, b int, incremental bool) *FixedWindow {
	t.Helper()
	fw, err := New(n, b, headEps)
	if err != nil {
		t.Fatal(err)
	}
	fw.SetIncrementalRebuild(incremental)
	return fw
}

// TestPushAllocationFree holds every rebuild engine to zero allocations
// per push in steady state at the headline configuration. The
// incremental engine is measured over whole fallback periods (K repair
// passes and the scheduled exact rebuild), so its rare exact pass counts
// too.
func TestPushAllocationFree(t *testing.T) {
	vals := gateValues(3 * headN)
	pos := headN
	next := func() float64 { pos++; return vals[pos-1] }

	exact := gateWindow(t, headN, headBuckets, false)
	incr := gateWindow(t, headN, headBuckets, true)
	ref, err := NewReference(headN, headBuckets, headEps, exact.Delta(), false)
	if err != nil {
		t.Fatal(err)
	}
	exact.PushBatch(vals[:headN])
	incr.PushBatch(vals[:headN])
	ref.PushBatch(vals[:headN])
	period := incr.incrEveryEff() + 1

	for _, tc := range []struct {
		name string
		runs int
		op   func()
	}{
		{"exact", 3, func() { exact.Push(next()) }},
		{"reference", 3, func() { ref.Push(next()) }},
		{"incremental", 2, func() {
			for i := 0; i < period; i++ {
				incr.Push(next())
			}
		}},
	} {
		tc.op() // grow the reused queue arrays to steady-state capacity
		if allocs := testing.AllocsPerRun(tc.runs, tc.op); allocs != 0 {
			t.Errorf("%s: %v allocations per run, want 0", tc.name, allocs)
		}
	}
	if _, _, falls := incr.IncrementalStats(); falls != 4 {
		t.Errorf("incremental: %d scheduled exact rebuilds over 4 whole periods, want 4", falls)
	}
}

// TestRebuildWork counts the engines' work per push — HERROR evaluations
// and the candidate boundaries they inspect (Evals), the per-point cost
// Theorem 1 bounds — over one whole fallback period of the incremental
// engine: K repair passes and one scheduled exact rebuild.
//
// At the headline configuration the exact engine's counts are pinned:
// they are a deterministic function of the search, so a lost memo, a
// lost warm start or any other change to which positions CreateList
// probes moves them, and an intended change re-pins them here. The
// incremental engine must do at least three times less of both than
// the exact engine over the same points.
func TestRebuildWork(t *testing.T) {
	const minRatio = 3
	for _, tc := range []struct {
		n, b                 int
		wantEvals, wantCands int64 // exact engine over the period; 0 = unpinned
	}{
		{headN, headBuckets, 2333987, 347330635},
		{1024, 8, 0, 0},
	} {
		exact := gateWindow(t, tc.n, tc.b, false)
		incr := gateWindow(t, tc.n, tc.b, true)
		period := incr.incrEveryEff() + 1
		vals := gateValues(tc.n + period)
		exact.PushBatch(vals[:tc.n])
		incr.PushBatch(vals[:tc.n])
		e0, c0 := exact.Evals()
		ie0, ic0 := incr.Evals()
		for _, v := range vals[tc.n:] {
			exact.Push(v)
			incr.Push(v)
		}
		e1, c1 := exact.Evals()
		ie1, ic1 := incr.Evals()
		evals, cands := e1-e0, c1-c0
		ievals, icands := ie1-ie0, ic1-ic0
		per := float64(period)
		t.Logf("n=%d B=%d over %d pushes: exact %.1f evals, %.1f candidates per push; incremental %.1f, %.1f (x%.1f, x%.1f)",
			tc.n, tc.b, period, float64(evals)/per, float64(cands)/per, float64(ievals)/per, float64(icands)/per,
			float64(evals)/float64(ievals), float64(cands)/float64(icands))

		if evals < minRatio*ievals || cands < minRatio*icands {
			t.Errorf("n=%d B=%d: incremental engine did %d evaluations and %d candidates against the exact engine's %d and %d, want at most 1/%d of each",
				tc.n, tc.b, ievals, icands, evals, cands, minRatio)
		}
		if hits, _, falls := incr.IncrementalStats(); hits != int64(period-1) || falls != 1 {
			t.Errorf("n=%d B=%d: %d repair passes and %d fallbacks, want one whole period (%d and 1)",
				tc.n, tc.b, hits, falls, period-1)
		}
		if tc.wantEvals != 0 {
			// Other architectures may fuse multiply-adds in the prefix sums,
			// which moves HERROR's last bits and with them the probe counts.
			if runtime.GOARCH != "amd64" {
				t.Logf("counts pinned for amd64 arithmetic; not checked on %s", runtime.GOARCH)
			} else if evals != tc.wantEvals || cands != tc.wantCands {
				t.Errorf("n=%d B=%d: exact engine did %d evaluations and %d candidates over %d pushes, pinned %d and %d",
					tc.n, tc.b, evals, cands, period, tc.wantEvals, tc.wantCands)
			}
		}
	}
}
