package streamhist_test

import (
	"sync/atomic"
	"testing"
	"time"

	"streamhist"
	"streamhist/internal/datagen"
	"streamhist/internal/resilience"
)

// BenchmarkPushResilience measures the fixed-window push hot path bare
// and with the per-value bookkeeping an armed, healthy circuit breaker
// adds to the server's ingest path: a degraded-flag load and a breaker
// Success. The server does this once per batch, so charging it per push
// is a deliberate upper bound. TestResilienceOverheadBudget gates that
// bookkeeping at ≤2% of a push.
func BenchmarkPushResilience(b *testing.B) {
	br := resilience.NewBreaker(resilience.BreakerConfig{
		Threshold: 3, Backoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second,
	})
	var degraded atomic.Bool
	for _, tc := range []struct {
		name string
		pre  func()
	}{
		{"off", nil},
		{"on", func() {
			if !degraded.Load() {
				br.Success()
			}
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m, err := streamhist.NewFixedWindow(1024, 12, 0.1, streamhist.WithDelta(0.1))
			if err != nil {
				b.Fatal(err)
			}
			g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 17, Quantize: true})
			for i := 0; i < 1024; i++ {
				m.Push(g.Next())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tc.pre != nil {
					tc.pre()
				}
				m.Push(g.Next())
			}
		})
	}
}

// TestPushResilienceAllocationFree asserts the armed-breaker bookkeeping
// itself allocates nothing: the degraded check is an atomic load and a
// healthy Success is a mutex round trip, so resilience adds time only,
// never garbage.
func TestPushResilienceAllocationFree(t *testing.T) {
	br := resilience.NewBreaker(resilience.BreakerConfig{Threshold: 3})
	var degraded atomic.Bool
	m, err := streamhist.NewFixedWindow(1024, 8, 0.2, streamhist.WithDelta(0.2))
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 21, Quantize: true})
	for i := 0; i < 2048; i++ {
		m.Push(g.Next())
	}
	allocs := testing.AllocsPerRun(200, func() {
		if !degraded.Load() {
			br.Success()
		}
		m.Push(g.Next())
	})
	if allocs != 0 {
		t.Errorf("push with armed breaker allocates %v per op", allocs)
	}
}

// TestResilienceOverheadBudget holds the armed, healthy breaker's
// bookkeeping (the degraded-flag load and Breaker.Success that
// BenchmarkPushResilience charges per push) to at most 2% of the push.
// The bookkeeping is timed on its own against the bare push, not as the
// difference of two nearly equal push timings.
func TestResilienceOverheadBudget(t *testing.T) {
	const budget = 0.02
	br := resilience.NewBreaker(resilience.BreakerConfig{
		Threshold: 3, Backoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second,
	})
	var degraded atomic.Bool
	armed := minNsPerOp(5, 1000, func() {
		if !degraded.Load() {
			br.Success()
		}
	})
	base := barePushNs(t)
	t.Logf("armed breaker %.0f ns against a %.0f ns push (%.3f%%, budget %.0f%%)",
		armed, base, 100*armed/base, 100*budget)
	if armed > budget*base {
		t.Errorf("armed breaker adds %.0f ns to a %.0f ns push (%.1f%%), budget %.0f%%",
			armed, base, 100*armed/base, 100*budget)
	}
}
