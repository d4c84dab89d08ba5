package streamhist_test

import (
	"testing"

	"streamhist"
	"streamhist/internal/datagen"
)

// BenchmarkPushTracing measures the fixed-window push hot path with the
// flight recorder detached (the default) and attached, over the same
// stream. The "off" variant must match the uninstrumented push — nil
// tracer checks only, zero allocations; the "on" variant shows the cost
// of recording ~5 ring events per push+rebuild. CI runs this pair and
// benchsmoke gates the paired overhead at ≤5%.
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
