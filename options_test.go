package streamhist_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"streamhist"
	"streamhist/internal/datagen"
)

// TestMaintainerDefaults checks the option defaulting matches the
// documented eps/(2B) growth factor and the sentinel error contract.
func TestMaintainerDefaults(t *testing.T) {
	m, err := streamhist.NewFixedWindow(32, 4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Delta(); got != 0.2/8 {
		t.Errorf("default delta = %v, want eps/(2B)", got)
	}
	if m.Capacity() != 32 || m.Buckets() != 4 || m.Epsilon() != 0.2 {
		t.Errorf("accessors: n=%d b=%d eps=%v", m.Capacity(), m.Buckets(), m.Epsilon())
	}
	if m.FixedWindow() == nil || m.TimeWindow() != nil {
		t.Error("count-based maintainer exposes wrong underlying type")
	}
	tm, err := streamhist.NewFixedWindow(32, 4, 0.2, streamhist.WithSpan(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if tm.Span() != time.Minute || tm.TimeWindow() == nil || tm.FixedWindow() != nil {
		t.Errorf("time-based maintainer: Span = %v, exposes wrong underlying type", tm.Span())
	}

	for _, tc := range []struct {
		name string
		err  error
		call func() error
	}{
		{"bad epsilon", streamhist.ErrBadEpsilon, func() error {
			_, err := streamhist.NewFixedWindow(32, 4, 0)
			return err
		}},
		{"bad epsilon span", streamhist.ErrBadEpsilon, func() error {
			_, err := streamhist.NewFixedWindow(32, 4, -1, streamhist.WithSpan(time.Second))
			return err
		}},
		{"bad buckets", streamhist.ErrBadBuckets, func() error {
			_, err := streamhist.NewFixedWindow(32, 0, 0.2)
			return err
		}},
		{"bad window", streamhist.ErrBadWindow, func() error {
			_, err := streamhist.NewFixedWindow(0, 4, 0.2)
			return err
		}},
		{"bad span", streamhist.ErrBadSpan, func() error {
			_, err := streamhist.NewFixedWindow(32, 4, 0.2, streamhist.WithSpan(-time.Second))
			return err
		}},
		{"bad delta", streamhist.ErrBadDelta, func() error {
			_, err := streamhist.NewFixedWindow(32, 4, 0.2, streamhist.WithDelta(-1))
			return err
		}},
	} {
		err := tc.call()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !errors.Is(err, tc.err) {
			t.Errorf("%s: error %v does not wrap the sentinel", tc.name, err)
		}
	}
}

// TestWithMetrics checks instrumentation attaches through the option and
// surfaces in the exposition.
func TestWithMetrics(t *testing.T) {
	reg := streamhist.NewMetrics()
	m, err := streamhist.NewFixedWindow(32, 4, 0.2, streamhist.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		m.Push(float64(i % 7))
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

// TestMaintainerConcurrencyRace hammers a WithConcurrency maintainer from
// several goroutines; run under -race.
func TestMaintainerConcurrencyRace(t *testing.T) {
	m, err := streamhist.NewFixedWindow(128, 4, 0.5, streamhist.WithConcurrency(), streamhist.WithMetrics(streamhist.NewMetrics()))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 7, Quantize: true})
		for i := 0; i < 400; i++ {
			m.Push(g.Next())
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			m.PushBatch([]float64{1, 2, 3})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_, _ = m.Histogram()
			_ = m.ApproxError()
			_ = m.Window()
		}
	}()
	wg.Wait()
	if m.Seen() != 400+100*3 {
		t.Errorf("Seen = %d", m.Seen())
	}
}
