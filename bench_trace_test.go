package streamhist_test

import (
	"testing"
	"time"

	"streamhist"
	"streamhist/internal/datagen"
	"streamhist/internal/trace"
)

// BenchmarkPushTracing measures the fixed-window push hot path with the
// flight recorder detached (the default) and attached, over the same
// stream. The "off" variant must match the uninstrumented push — nil
// tracer checks only, zero allocations; the "on" variant shows the cost
// of recording the ring events of each push and rebuild.
// TestTracingOverheadBudget gates that cost at ≤5%.
func BenchmarkPushTracing(b *testing.B) {
	newTracer := func() *streamhist.Tracer {
		tr, err := streamhist.NewTracer(4096)
		if err != nil {
			b.Fatal(err)
		}
		return tr
	}
	for _, tc := range []struct {
		name string
		tr   *streamhist.Tracer
	}{
		{"off", nil},
		{"on", newTracer()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m, err := streamhist.NewFixedWindow(1024, 12, 0.1,
				streamhist.WithDelta(0.1), streamhist.WithTracing(tc.tr))
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

// TestPushDisabledTracingAllocationFree asserts the full-maintenance
// push path stays allocation-free in steady state with no tracer
// attached — the nil-is-disabled contract that lets the span calls live
// unconditionally in Push and rebuild.
func TestPushDisabledTracingAllocationFree(t *testing.T) {
	m, err := streamhist.NewFixedWindow(1024, 8, 0.2, streamhist.WithDelta(0.2))
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 19, Quantize: true})
	for i := 0; i < 2048; i++ { // fill past capacity into steady state
		m.Push(g.Next())
	}
	allocs := testing.AllocsPerRun(200, func() {
		m.Push(g.Next())
	})
	if allocs != 0 {
		t.Errorf("Push with tracing disabled allocates %v per op", allocs)
	}
}

// TestPushEnabledTracingAllocationFree asserts recording itself is
// allocation-free: events are fixed-size struct copies into the
// preallocated ring, so an attached tracer adds time but no garbage.
func TestPushEnabledTracingAllocationFree(t *testing.T) {
	tr, err := streamhist.NewTracer(1024)
	if err != nil {
		t.Fatal(err)
	}
	m, err := streamhist.NewFixedWindow(1024, 8, 0.2,
		streamhist.WithDelta(0.2), streamhist.WithTracing(tr))
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 20, Quantize: true})
	for i := 0; i < 2048; i++ {
		m.Push(g.Next())
	}
	allocs := testing.AllocsPerRun(200, func() {
		m.Push(g.Next())
	})
	if allocs != 0 {
		t.Errorf("Push with tracing enabled allocates %v per op", allocs)
	}
}

// minNsPerOp times trials rounds of ops calls of op and returns the
// fastest round's cost per call. Interference on a shared machine only
// ever adds time, so the fastest round is the one closest to the work
// itself.
func minNsPerOp(trials, ops int, op func()) float64 {
	best := 0.0
	for r := 0; r < trials; r++ {
		start := time.Now()
		for i := 0; i < ops; i++ {
			op()
		}
		if ns := float64(time.Since(start).Nanoseconds()) / float64(ops); r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// overheadWindow builds the maintainer the overhead gates charge against:
// n=1024, B=12, eps=delta=0.1 (BenchmarkPushTracing's configuration),
// window full, so every push slides it and rebuilds the cover.
func overheadWindow(t *testing.T, opts ...streamhist.Option) (*streamhist.Maintainer, datagen.Generator) {
	t.Helper()
	m, err := streamhist.NewFixedWindow(1024, 12, 0.1, append(opts, streamhist.WithDelta(0.1))...)
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 17, Quantize: true})
	m.PushBatch(datagen.Series(g, 1024))
	for i := 0; i < 10; i++ { // reach the steady-state cover and buffers
		m.Push(g.Next())
	}
	return m, g
}

// barePushNs is the cost of one untraced, unguarded push of
// overheadWindow: the base the overhead budgets are fractions of.
func barePushNs(t *testing.T) float64 {
	t.Helper()
	m, g := overheadWindow(t)
	return minNsPerOp(5, 100, func() { m.Push(g.Next()) })
}

// TestTracingOverheadBudget holds an attached flight recorder to at most
// 5% of the push it records. It does not time a traced push against an
// untraced one: those are two nearly equal totals, and their difference
// on a shared machine is mostly noise. It times the added work directly
// instead: the number of events one traced push records, read off the
// recorder, each charged half a span (a StartSpan or an End) or an
// Instant, whichever is dearer, against the untraced push.
func TestTracingOverheadBudget(t *testing.T) {
	const budget = 0.05
	tr, err := streamhist.NewTracer(4096)
	if err != nil {
		t.Fatal(err)
	}
	m, g := overheadWindow(t, streamhist.WithTracing(tr))
	const pushes = 20
	before := tr.Total()
	for i := 0; i < pushes; i++ {
		m.Push(g.Next())
	}
	events := float64(tr.Total()-before) / pushes

	span := minNsPerOp(5, 1000, func() {
		tr.StartSpan(0, trace.EvRebuild, 0, 0, 0).End(0, 0)
	})
	instant := minNsPerOp(5, 1000, func() {
		tr.Instant(trace.EvLevel, 1, 0, 0, 0, 0)
	})
	perEvent := max(span/2, instant)
	base := barePushNs(t)
	added := events * perEvent
	t.Logf("%.0f events per push at <= %.0f ns each: %.0f ns against a %.0f ns push (%.2f%%, budget %.0f%%)",
		events, perEvent, added, base, 100*added/base, 100*budget)
	if added > budget*base {
		t.Errorf("tracing adds %.0f ns to a %.0f ns push (%.1f%%), budget %.0f%%",
			added, base, 100*added/base, 100*budget)
	}
}
