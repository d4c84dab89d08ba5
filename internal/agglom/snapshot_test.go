package agglom

import (
	"math"
	"testing"

	"streamhist/internal/codec"
	"streamhist/internal/datagen"
)

func TestSnapshotRoundTripAndContinuation(t *testing.T) {
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 121, Quantize: true})
	orig, err := New(8, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		orig.Push(g.Next())
	}
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Summary
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if restored.N() != orig.N() {
		t.Fatalf("N: %d vs %d", restored.N(), orig.N())
	}
	if restored.ApproxError() != orig.ApproxError() {
		t.Errorf("error: %v vs %v", restored.ApproxError(), orig.ApproxError())
	}
	if restored.StoredEndpoints() != orig.StoredEndpoints() {
		t.Errorf("endpoints: %d vs %d", restored.StoredEndpoints(), orig.StoredEndpoints())
	}
	// Continue both streams identically; they must stay in lockstep.
	for i := 0; i < 1000; i++ {
		v := g.Next()
		orig.Push(v)
		restored.Push(v)
		if math.Abs(orig.ApproxError()-restored.ApproxError()) > 1e-9*(1+orig.ApproxError()) {
			t.Fatalf("diverged at step %d", i)
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
		t.Errorf("SSE: %v vs %v", ho.SSE, hr.SSE)
	}
}

func TestSnapshotEmptySummary(t *testing.T) {
	orig, _ := New(4, 0.5)
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Summary
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if restored.N() != 0 {
		t.Errorf("N = %d", restored.N())
	}
	restored.Push(5)
	if restored.N() != 1 {
		t.Errorf("restored summary not usable")
	}
}

func TestSnapshotRejectsCorrupt(t *testing.T) {
	orig, _ := New(4, 0.5)
	for i := 0; i < 100; i++ {
		orig.Push(float64(i % 9))
	}
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Summary
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("ZZZZ"), data[4:]...),
		"truncated": data[:len(data)/2],
		"trailing":  append(append([]byte{}, data...), 9),
	}
	for name, in := range cases {
		if err := restored.UnmarshalBinary(in); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSnapshotDoesNotClobberOnError(t *testing.T) {
	s, _ := New(4, 0.5)
	s.Push(1)
	s.Push(2)
	if err := s.UnmarshalBinary([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	if s.N() != 2 {
		t.Error("failed restore clobbered receiver")
	}
}

// singlePositionBlob hand-builds a SAG1 snapshot of a B=2 summary (one
// queue) after three points whose queue holds one interval at position 1,
// written with the given start and end halves.
func singlePositionBlob(start, end endpoint) []byte {
	w := codec.NewWriter(snapshotMagic)
	w.Int(2)       // b
	w.Float64(0.5) // eps
	w.Int(3)       // n
	w.Float64(6)   // running sum
	w.Float64(14)  // running sum of squares
	w.Float64(0.5) // herrTop
	w.Int(1)       // queues
	w.Int(1)       // intervals in queue 1
	for _, ep := range [2]endpoint{start, end} {
		w.Int(ep.pos)
		w.Float64(ep.sum)
		w.Float64(ep.sq)
		w.Float64(ep.herr)
	}
	return w.Bytes()
}

// TestSnapshotRejectsSplitSinglePositionInterval: an interval whose start
// and end share a position is one stored endpoint, so its two encoded
// halves must agree bit for bit; a decoder that kept both would let
// Push's (1+delta) test read one and the scans the other.
func TestSnapshotRejectsSplitSinglePositionInterval(t *testing.T) {
	start := endpoint{pos: 1, sum: 3, sq: 5, herr: 0.5}
	var ok Summary
	if err := ok.UnmarshalBinary(singlePositionBlob(start, start)); err != nil {
		t.Fatalf("matching halves rejected: %v", err)
	}
	if got := ok.QueueSizes(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("queue sizes %v, want [1]", got)
	}
	for name, mutate := range map[string]func(*endpoint){
		"sum":  func(ep *endpoint) { ep.sum = 4 },
		"sq":   func(ep *endpoint) { ep.sq = 6 },
		"herr": func(ep *endpoint) { ep.herr = 0.51 },
	} {
		end := start
		mutate(&end)
		var s Summary
		if err := s.UnmarshalBinary(singlePositionBlob(start, end)); err == nil {
			t.Errorf("single-position interval with differing %s accepted", name)
		}
	}
}

// BenchmarkMarshal measures encoding a SAG1 snapshot after 4096 points
// at B=16, eps=0.1.
func BenchmarkMarshal(b *testing.B) {
	s, err := New(16, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 26, Quantize: true})
	for i := 0; i < 4096; i++ {
		s.Push(g.Next())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}
