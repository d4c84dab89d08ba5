package core

import (
	"math"
	"testing"
	"time"

	"streamhist/internal/datagen"
	"streamhist/internal/vopt"
)

func TestNewTimeWindowValidation(t *testing.T) {
	if _, err := NewTimeWindow(16, 4, 0.2, 0.2, 0); err == nil {
		t.Error("zero span accepted")
	}
	if _, err := NewTimeWindow(0, 4, 0.2, 0.2, time.Second); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestTimeWindowExpiry(t *testing.T) {
	tw, err := NewTimeWindow(100, 4, 0.5, 0.5, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1000, 0)
	// One point per second for 30 seconds: only the last 10 survive.
	for i := 0; i < 30; i++ {
		if err := tw.Push(base.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tw.Len() != 10 {
		t.Fatalf("Len = %d, want 10", tw.Len())
	}
	win := tw.Window()
	if win[0] != 20 || win[len(win)-1] != 29 {
		t.Errorf("window = %v", win)
	}
	if ts, ok := tw.OldestTimestamp(); !ok || !ts.Equal(base.Add(20*time.Second)) {
		t.Errorf("oldest = %v, %v", ts, ok)
	}
	if tw.Span() != 10*time.Second {
		t.Errorf("Span = %v", tw.Span())
	}
}

func TestTimeWindowRejectsOutOfOrder(t *testing.T) {
	tw, _ := NewTimeWindow(16, 2, 0.5, 0.5, time.Minute)
	base := time.Unix(2000, 0)
	if err := tw.Push(base, 1); err != nil {
		t.Fatal(err)
	}
	if err := tw.Push(base.Add(-time.Second), 2); err == nil {
		t.Error("out-of-order timestamp accepted")
	}
	if err := tw.Push(base, 3); err != nil {
		t.Errorf("equal timestamp rejected: %v", err)
	}
}

func TestTimeWindowCapacityPressure(t *testing.T) {
	// Arrivals faster than capacity allows: oldest dropped early.
	tw, _ := NewTimeWindow(5, 2, 0.5, 0.5, time.Hour)
	base := time.Unix(3000, 0)
	for i := 0; i < 12; i++ {
		if err := tw.Push(base.Add(time.Duration(i)*time.Millisecond), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tw.Len() != 5 {
		t.Fatalf("Len = %d", tw.Len())
	}
	win := tw.Window()
	if win[0] != 7 || win[4] != 11 {
		t.Errorf("window = %v", win)
	}
}

func TestTimeWindowEmpty(t *testing.T) {
	tw, _ := NewTimeWindow(8, 2, 0.5, 0.5, time.Second)
	if _, err := tw.Histogram(); err == nil {
		t.Error("histogram of empty window succeeded")
	}
	if _, ok := tw.OldestTimestamp(); ok {
		t.Error("oldest timestamp of empty window reported")
	}
}

// TestTimeWindowGuarantee: the approximation guarantee must hold for the
// surviving points after arbitrary expiry patterns.
func TestTimeWindowGuarantee(t *testing.T) {
	tw, err := NewTimeWindow(200, 4, 0.2, 0.2, 50*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(5000, 0)
	vals := []float64{3, 7, 5, 8, 2, 6, 4, 100, 120, 1, 9, 60}
	step := 0
	for round := 0; round < 20; round++ {
		for _, v := range vals {
			// Irregular spacing: bursts then gaps.
			gap := time.Duration(1+step%13) * time.Second
			base = base.Add(gap)
			if err := tw.Push(base, v); err != nil {
				t.Fatal(err)
			}
			step++
			if tw.Len() < 2 {
				continue
			}
			win := tw.Window()
			opt, err := vopt.Error(win, 4)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tw.Histogram()
			if err != nil {
				t.Fatal(err)
			}
			bound := math.Pow(1.2, 8)*opt + 1e-6
			if res.SSE > bound {
				t.Fatalf("step %d: SSE %v exceeds bound %v (opt %v)", step, res.SSE, bound, opt)
			}
		}
	}
}

func TestEvictOldestDirect(t *testing.T) {
	// Exercise the prefix-store primitive across rebase boundaries.
	fw, _ := New(4, 2, 0.5)
	for i := 1; i <= 4; i++ {
		fw.sums.Push(float64(i))
	}
	if !fw.sums.EvictOldest() {
		t.Fatal("eviction failed")
	}
	if fw.sums.Len() != 3 {
		t.Fatalf("Len = %d", fw.sums.Len())
	}
	vals := fw.sums.Values()
	if vals[0] != 2 || vals[2] != 4 {
		t.Errorf("values = %v", vals)
	}
	// Evict everything; further evictions are no-ops.
	fw.sums.EvictOldest()
	fw.sums.EvictOldest()
	fw.sums.EvictOldest()
	if fw.sums.EvictOldest() {
		t.Error("eviction from empty store succeeded")
	}
	// Alternate pushes and evictions across many rebases.
	for i := 0; i < 50; i++ {
		fw.sums.Push(float64(i))
		if i%3 == 0 {
			fw.sums.EvictOldest()
		}
	}
	if fw.sums.Len() == 0 {
		t.Error("store emptied unexpectedly")
	}
	if got := fw.sums.RangeSum(0, fw.sums.Len()-1); got <= 0 {
		t.Errorf("RangeSum = %v", got)
	}
}

// BenchmarkTimeWindowPush measures timestamped maintenance of a full
// window, one expiry per push.
func BenchmarkTimeWindowPush(b *testing.B) {
	tw, err := NewTimeWindow(2048, 8, 0.1, 0.1, time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 27, Quantize: true})
	base := time.Unix(0, 0)
	for i := 0; i < 2048; i++ {
		if err := tw.Push(base.Add(time.Duration(i)*time.Second), g.Next()); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := base.Add(time.Duration(2048+i) * time.Second)
		if err := tw.Push(ts, g.Next()); err != nil {
			b.Fatal(err)
		}
	}
}
