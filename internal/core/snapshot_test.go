package core

import (
	"math"
	"testing"

	"streamhist/internal/codec"
	"streamhist/internal/datagen"
)

func TestSnapshotRoundTrip(t *testing.T) {
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 120, Quantize: true})
	orig, err := NewWithDelta(64, 6, 0.2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		orig.Push(g.Next())
	}
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored FixedWindow
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if restored.Seen() != orig.Seen() || restored.Len() != orig.Len() {
		t.Fatalf("Seen/Len mismatch: %d/%d vs %d/%d",
			restored.Seen(), restored.Len(), orig.Seen(), orig.Len())
	}
	if restored.ApproxError() != orig.ApproxError() {
		t.Errorf("error mismatch: %v vs %v", restored.ApproxError(), orig.ApproxError())
	}
	// The two must evolve identically afterwards.
	for i := 0; i < 100; i++ {
		v := g.Next()
		orig.Push(v)
		restored.Push(v)
		if math.Abs(orig.ApproxError()-restored.ApproxError()) > 1e-9*(1+orig.ApproxError()) {
			t.Fatalf("diverged at step %d: %v vs %v", i, orig.ApproxError(), restored.ApproxError())
		}
	}
	ho, err := orig.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	hr, err := restored.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if ho.SSE != hr.SSE {
		t.Errorf("histogram SSE mismatch: %v vs %v", ho.SSE, hr.SSE)
	}
}

func TestSnapshotPartialWindow(t *testing.T) {
	orig, _ := New(32, 3, 0.5)
	for i := 0; i < 10; i++ {
		orig.Push(float64(i))
	}
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored FixedWindow
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 10 || restored.Seen() != 10 {
		t.Errorf("Len=%d Seen=%d", restored.Len(), restored.Seen())
	}
}

func TestSnapshotRejectsCorrupt(t *testing.T) {
	orig, _ := New(8, 2, 0.5)
	orig.Push(1)
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored FixedWindow
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XXXX"), data[4:]...),
		"truncated": data[:len(data)-4],
		"trailing":  append(append([]byte{}, data...), 1, 2, 3),
	}
	for name, in := range cases {
		if err := restored.UnmarshalBinary(in); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// sfw1Blob hand-encodes an SFW1 snapshot. reserved is the byte earlier
// releases read as the linear-scan ablation switch.
func sfw1Blob(reserved bool, n, b int, eps, delta float64, seen int64, window []float64) []byte {
	w := codec.NewWriter(snapshotMagic)
	w.Int(n)
	w.Int(b)
	w.Float64(eps)
	w.Float64(delta)
	w.Bool(reserved)
	w.Int64(seen)
	w.Floats(window)
	return w.Bytes()
}

// TestSnapshotIgnoresLinearScanByte pins that snapshot input cannot
// select an ablation engine: a blob with the old linear-scan byte set
// restores onto the production engine — its warm-start and memo counters
// advance on the next flush — in exactly the state the same blob without
// the byte restores to.
func TestSnapshotIgnoresLinearScanByte(t *testing.T) {
	window := make([]float64, 48)
	for i := range window {
		window[i] = float64((i * 7) % 11)
	}
	restore := func(reserved bool) *FixedWindow {
		var fw FixedWindow
		if err := fw.UnmarshalBinary(sfw1Blob(reserved, 64, 4, 0.2, 0.05, 100, window)); err != nil {
			t.Fatal(err)
		}
		return &fw
	}
	set, clean := restore(true), restore(false)
	requireSameState(t, "restored", clean, set)
	seeded0, fallbacks0 := set.WarmStats()
	hits0, misses0 := set.MemoStats()
	set.PushLazy(3)
	clean.PushLazy(3)
	requireSameState(t, "flushed", clean, set)
	if seeded, fallbacks := set.WarmStats(); seeded+fallbacks == seeded0+fallbacks0 {
		t.Error("flush did not run the warm-started CreateList")
	}
	if hits, misses := set.MemoStats(); hits+misses == hits0+misses0 {
		t.Error("flush did not consult the probe memo")
	}
}

// BenchmarkSnapshot measures encoding and restoring a full window at
// n=4096, B=16.
func BenchmarkSnapshot(b *testing.B) {
	fw, err := NewWithDelta(4096, 16, 0.1, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 26, Quantize: true})
	for i := 0; i < 4096; i++ {
		fw.PushLazy(g.Next())
	}
	b.Run("marshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fw.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("restore", func(b *testing.B) {
		blob, err := fw.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var r FixedWindow
			if err := r.UnmarshalBinary(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}
