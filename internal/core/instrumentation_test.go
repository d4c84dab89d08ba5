package core

import (
	"strings"
	"testing"
	"time"

	"streamhist/internal/datagen"
	"streamhist/internal/obs"
	"streamhist/internal/trace"
)

// TestSetRegistryExposition checks that an attached registry counts every
// push and rebuild and serves them in the text exposition.
func TestSetRegistryExposition(t *testing.T) {
	reg := obs.NewRegistry()
	f, err := New(32, 4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	f.SetRegistry(reg)
	for i := 0; i < 100; i++ {
		f.Push(float64(i % 7))
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"streamhist_core_push_seconds{quantile=\"0.5\"}",
		"streamhist_core_push_seconds_count 100",
		"streamhist_core_rebuilds_total 100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkPushMetrics measures the fixed-window push hot path with
// instrumentation detached (the default) and attached, over the same
// stream. The "off" variant is the number to compare against the seed:
// disabled metrics must cost nothing but a few nil checks and add zero
// allocations. CI runs this pair as a smoke test.
func BenchmarkPushMetrics(b *testing.B) {
	for _, tc := range []struct {
		name string
		reg  *obs.Registry
	}{
		{"off", nil},
		{"on", obs.NewRegistry()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			f, err := NewWithDelta(1024, 12, 0.1, 0.1)
			if err != nil {
				b.Fatal(err)
			}
			f.SetRegistry(tc.reg)
			g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 17, Quantize: true})
			for i := 0; i < 1024; i++ {
				f.Push(g.Next())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Push(g.Next())
			}
		})
	}
}

// TestPushLazyDisabledMetricsAllocationFree asserts the lazy ingest path
// stays allocation-free in steady state when metrics are disabled — the
// contract that lets the instrumentation calls live unconditionally in
// the hot path.
func TestPushLazyDisabledMetricsAllocationFree(t *testing.T) {
	f, err := NewWithDelta(1024, 8, 0.2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 18, Quantize: true})
	for i := 0; i < 2048; i++ { // fill past capacity into steady state
		f.PushLazy(g.Next())
	}
	allocs := testing.AllocsPerRun(1000, func() {
		f.PushLazy(g.Next())
	})
	if allocs != 0 {
		t.Errorf("PushLazy with metrics disabled allocates %v per op", allocs)
	}
}

// BenchmarkPushTracing measures the fixed-window push hot path with the
// flight recorder detached (the default) and attached, over the same
// stream. The "off" variant must match the uninstrumented push — nil
// tracer checks only, zero allocations; the "on" variant shows the cost
// of recording the ring events of each push and rebuild.
// TestTracingOverheadBudget gates that cost at ≤5%.
func BenchmarkPushTracing(b *testing.B) {
	newTracer := func() *trace.Recorder {
		tr, err := trace.New(4096)
		if err != nil {
			b.Fatal(err)
		}
		return tr
	}
	for _, tc := range []struct {
		name string
		tr   *trace.Recorder
	}{
		{"off", nil},
		{"on", newTracer()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			f, err := NewWithDelta(1024, 12, 0.1, 0.1)
			if err != nil {
				b.Fatal(err)
			}
			f.SetTracer(tc.tr)
			g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 17, Quantize: true})
			for i := 0; i < 1024; i++ {
				f.Push(g.Next())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Push(g.Next())
			}
		})
	}
}

// TestPushDisabledTracingAllocationFree asserts the full-maintenance
// push path stays allocation-free in steady state with no tracer
// attached — the nil-is-disabled contract that lets the span calls live
// unconditionally in Push and rebuild.
func TestPushDisabledTracingAllocationFree(t *testing.T) {
	f, err := NewWithDelta(1024, 8, 0.2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 19, Quantize: true})
	for i := 0; i < 2048; i++ { // fill past capacity into steady state
		f.Push(g.Next())
	}
	allocs := testing.AllocsPerRun(200, func() {
		f.Push(g.Next())
	})
	if allocs != 0 {
		t.Errorf("Push with tracing disabled allocates %v per op", allocs)
	}
}

// TestPushEnabledTracingAllocationFree asserts recording itself is
// allocation-free: events are fixed-size struct copies into the
// preallocated ring, so an attached tracer adds time but no garbage.
func TestPushEnabledTracingAllocationFree(t *testing.T) {
	tr, err := trace.New(1024)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewWithDelta(1024, 8, 0.2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	f.SetTracer(tr)
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 20, Quantize: true})
	for i := 0; i < 2048; i++ {
		f.Push(g.Next())
	}
	allocs := testing.AllocsPerRun(200, func() {
		f.Push(g.Next())
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

// overheadWindow builds the maintainer the overhead gate charges against:
// n=1024, B=12, eps=delta=0.1 (BenchmarkPushTracing's configuration),
// window full, so every push slides it and rebuilds the cover. A nil tr
// leaves it untraced.
func overheadWindow(t *testing.T, tr *trace.Recorder) (*FixedWindow, datagen.Generator) {
	t.Helper()
	f, err := NewWithDelta(1024, 12, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	f.SetTracer(tr)
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 17, Quantize: true})
	f.PushBatch(datagen.Series(g, 1024))
	for i := 0; i < 10; i++ { // reach the steady-state cover and buffers
		f.Push(g.Next())
	}
	return f, g
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
	tr, err := trace.New(4096)
	if err != nil {
		t.Fatal(err)
	}
	f, g := overheadWindow(t, tr)
	const pushes = 20
	before := tr.Total()
	for i := 0; i < pushes; i++ {
		f.Push(g.Next())
	}
	events := float64(tr.Total()-before) / pushes

	span := minNsPerOp(5, 1000, func() {
		tr.StartSpan(0, trace.EvRebuild, 0, 0, 0).End(0, 0)
	})
	instant := minNsPerOp(5, 1000, func() {
		tr.Instant(trace.EvLevel, 1, 0, 0, 0, 0)
	})
	perEvent := max(span/2, instant)
	bare, bg := overheadWindow(t, nil)
	base := minNsPerOp(5, 100, func() { bare.Push(bg.Next()) })
	added := events * perEvent
	t.Logf("%.0f events per push at <= %.0f ns each: %.0f ns against a %.0f ns push (%.2f%%, budget %.0f%%)",
		events, perEvent, added, base, 100*added/base, 100*budget)
	if added > budget*base {
		t.Errorf("tracing adds %.0f ns to a %.0f ns push (%.1f%%), budget %.0f%%",
			added, base, 100*added/base, 100*budget)
	}
}
