package agglom

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"streamhist/internal/codec"
	"streamhist/internal/datagen"
)

// shiftSnapshot rewrites a SAG1 snapshot with n and every stored position
// moved up by d. The result is a valid snapshot of a stream that began
// with d zeros.
func shiftSnapshot(t *testing.T, blob []byte, d int) []byte {
	t.Helper()
	r, err := codec.NewReader(blob, snapshotMagic)
	if err != nil {
		t.Fatal(err)
	}
	w := codec.NewWriter(snapshotMagic)
	w.Int(r.Int())                // b
	w.Float64(r.Float64())        // eps
	w.Int64(r.Int64() + int64(d)) // n
	for range 3 {                 // running sums, herrTop
		w.Float64(r.Float64())
	}
	queues := r.Int()
	w.Int(queues)
	for range queues {
		intervals := r.Int()
		w.Int(intervals)
		for range 2 * intervals {
			w.Int64(r.Int64() + int64(d))
			for range 3 { // sum, sq, herr
				w.Float64(r.Float64())
			}
		}
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// refFromSnapshot builds the per-interval reference holding the state a
// SAG1 snapshot describes, so a restored Summary can be replayed against
// the oracle.
func refFromSnapshot(t *testing.T, blob []byte) *refSummary {
	t.Helper()
	r, err := codec.NewReader(blob, snapshotMagic)
	if err != nil {
		t.Fatal(err)
	}
	b := r.Int()
	ref := newRef(b, r.Float64())
	ref.n = int(r.Int64())
	ref.runningSum, ref.runningSq, ref.herrTop = r.Float64(), r.Float64(), r.Float64()
	for qi := range r.Int() {
		for range r.Int() {
			var iv refInterval
			for _, ep := range []*endpoint{&iv.start, &iv.end} {
				*ep = endpoint{pos: int(r.Int64()), sum: r.Float64(), sq: r.Float64(), herr: r.Float64()}
			}
			ref.queues[qi] = append(ref.queues[qi], iv)
		}
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestPositionsPastTwoToThe32 restores snapshots whose positions sit just
// below 2^32, or straddle it, and pushes 3000 points past it. Entries keep
// positions modulo 2^32 and the queues' epoch marks supply the rest, so
// the restored summary must hold the shifted positions exactly, encode
// the shifted snapshot byte for byte, and then agree bit for bit with
// the per-interval reference, which keeps whole positions, restored from
// the same snapshot. The shifted stream is not the original's translate:
// HERROR[pos, 1] and the first bucket count from position 0, where the
// shifted stream has 2^32 - 1000 zeros, so the original is compared only
// where shifting must not matter, before any push.
func TestPositionsPastTwoToThe32(t *testing.T) {
	const shift = 1<<32 - 1000
	for _, age := range []int{500, 2000} {
		g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 37, Quantize: true})
		orig, err := New(16, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		for range age {
			orig.Push(g.Next())
		}
		blob, err := orig.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		shiftedBlob := shiftSnapshot(t, blob, shift)
		var s Summary
		if err := s.UnmarshalBinary(shiftedBlob); err != nil {
			t.Fatalf("age %d: restoring the shifted snapshot: %v", age, err)
		}
		if s.N() != age+shift {
			t.Fatalf("age %d: N %d, want %d", age, s.N(), age+shift)
		}
		for qi := range s.queues {
			q, oq := &s.queues[qi], &orig.queues[qi]
			for i := range q.entries {
				got, want := q.endpoint(i), oq.endpoint(i)
				want.pos += shift
				if got != want {
					t.Fatalf("age %d: queue %d entry %d restored as %+v, want %+v", age, qi+1, i, got, want)
				}
			}
		}
		again, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, shiftedBlob) {
			t.Fatalf("age %d: the restored summary re-encodes differently", age)
		}

		ref := refFromSnapshot(t, shiftedBlob)
		for i := range 3000 {
			v := g.Next()
			s.Push(v)
			ref.Push(v)
			if math.Float64bits(s.ApproxError()) != math.Float64bits(ref.herrTop) {
				t.Fatalf("age %d, point %d past the snapshot: ApproxError %v, reference %v", age, i, s.ApproxError(), ref.herrTop)
			}
		}
		if err := sameAsReference(&s, ref); err != nil {
			t.Fatalf("age %d: %v", age, err)
		}
		marked := 0
		for qi := range s.queues {
			marked += len(s.queues[qi].epochs)
		}
		if marked != len(s.queues) {
			t.Errorf("age %d: %d epoch marks over %d queues, want one each", age, marked, len(s.queues))
		}
	}
}

// TestQueueEpochMarks drives queue.add across epochs directly, including
// gaps a restored snapshot can hold: a mark per epoch that holds entries,
// and a mark that moves when the end it starts at is overwritten with a
// position in a later epoch.
func TestQueueEpochMarks(t *testing.T) {
	var q queue
	q.add(5, entry{}, true)
	q.add(1<<32+3, entry{}, true)
	q.add(3<<32, entry{}, false)
	if want := []epochMark{{idx: 1, epoch: 1}, {idx: 2, epoch: 3}}; !slices.Equal(q.epochs, want) {
		t.Fatalf("marks %v, want %v", q.epochs, want)
	}
	q.add(5<<32+7, entry{}, false) // overwrites the end at 3<<32
	if want := []epochMark{{idx: 1, epoch: 1}, {idx: 2, epoch: 5}}; !slices.Equal(q.epochs, want) {
		t.Fatalf("marks %v after the overwrite, want %v", q.epochs, want)
	}
	q.add(5<<32+8, entry{}, true)
	for i, want := range []int{5, 1<<32 + 3, 5<<32 + 7, 5<<32 + 8} {
		if got := q.endpoint(i).pos; got != want {
			t.Errorf("entry %d at position %d, want %d", i, got, want)
		}
	}
	if len(q.epochs) != 2 {
		t.Errorf("marks %v, want no new mark within epoch 5", q.epochs)
	}
}
