package core

import (
	"math/rand"
	"testing"
)

// Modest sizes keep `go test -bench` quick; the scaling curves over
// larger windows live in cmd/benchsmoke.
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
	fw, err := New(n, bkts, eps) // default delta = eps/(2B), as the headline gate uses
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
