package streamhist_test

import (
	"testing"

	"streamhist"
	"streamhist/internal/datagen"
)

// BenchmarkPushMetrics measures the fixed-window push hot path with
// instrumentation detached (the default) and attached, over the same
// stream. The "off" variant is the number to compare against the seed:
// disabled metrics must cost nothing but a few nil checks and add zero
// allocations. CI runs this pair as a smoke test.
func BenchmarkPushMetrics(b *testing.B) {
	for _, tc := range []struct {
		name string
		reg  *streamhist.Metrics
	}{
		{"off", nil},
		{"on", streamhist.NewMetrics()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m, err := streamhist.NewFixedWindow(1024, 12, 0.1,
				streamhist.WithDelta(0.1), streamhist.WithMetrics(tc.reg))
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
				m.Push(g.Next())
			}
		})
	}
}

// TestPushLazyDisabledMetricsAllocationFree asserts the lazy ingest path
// stays allocation-free in steady state when metrics are disabled — the
// contract that lets the instrumentation calls live unconditionally in
// the hot path.
func TestPushLazyDisabledMetricsAllocationFree(t *testing.T) {
	m, err := streamhist.NewFixedWindow(1024, 8, 0.2, streamhist.WithDelta(0.2))
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 18, Quantize: true})
	for i := 0; i < 2048; i++ { // fill past capacity into steady state
		m.PushLazy(g.Next())
	}
	allocs := testing.AllocsPerRun(1000, func() {
		m.PushLazy(g.Next())
	})
	if allocs != 0 {
		t.Errorf("PushLazy with metrics disabled allocates %v per op", allocs)
	}
}
