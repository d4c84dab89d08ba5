package agglom

import (
	"math"
	"testing"
)

// requireInvariantPanic runs f against deliberately corrupted state: under
// -tags streamhist_invariants the assertion layer must panic, and without
// the tag the no-op stubs must let f return normally.
func requireInvariantPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if invariantsEnabled && r == nil {
			t.Errorf("%s: corruption not caught by checkInvariants", name)
		}
		if !invariantsEnabled && r != nil {
			t.Errorf("%s: stub checkInvariants panicked without the build tag: %v", name, r)
		}
	}()
	f()
}

// corruptibleSummary builds a summary and finds a queue holding a
// multi-position interval that is not the queue's newest, so corruption
// can bite on a stored start, a stored end, or the start index after it.
// It returns the queue and the interval's index in q.starts.
func corruptibleSummary(t *testing.T) (*Summary, *queue, int) {
	t.Helper()
	s, err := New(4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		s.Push(float64(i%13) + 0.25*float64(i))
	}
	for qi := range s.queues {
		q := &s.queues[qi]
		for i := 0; i+1 < len(q.starts); i++ {
			if q.starts[i+1]-q.starts[i] == 2 {
				return s, q, i
			}
		}
	}
	t.Fatal("no multi-position interval after 200 pushes")
	return nil, nil, 0
}

// startEnd returns pointers to interval i's stored start and end, which
// are distinct entries for a multi-position interval.
func startEnd(q *queue, i int) (start, end *entry) {
	return &q.entries[q.starts[i]], &q.entries[q.starts[i]+1]
}

func TestSummaryInvariantCorruption(t *testing.T) {
	requireInvariantPanic(t, "negative running sqsum", func() {
		s, _, _ := corruptibleSummary(t)
		s.runningSq = -1
		s.checkInvariants()
	})
	requireInvariantPanic(t, "interval ends before it starts", func() {
		s, q, i := corruptibleSummary(t)
		start, end := startEnd(q, i)
		end.pos = start.pos - 1
		s.checkInvariants()
	})
	requireInvariantPanic(t, "negative herror", func() {
		s, q, i := corruptibleSummary(t)
		start, _ := startEnd(q, i)
		start.herr = -1
		s.checkInvariants()
	})
	requireInvariantPanic(t, "herror grows beyond the (1+delta) bound", func() {
		s, q, i := corruptibleSummary(t)
		start, end := startEnd(q, i)
		end.herr = (1+s.delta)*start.herr + start.herr + 1
		s.checkInvariants()
	})
	requireInvariantPanic(t, "negative floor", func() {
		s, q, i := corruptibleSummary(t)
		_, end := startEnd(q, i)
		end.floor = -1
		s.checkInvariants()
	})
	requireInvariantPanic(t, "non-finite floor", func() {
		s, q, i := corruptibleSummary(t)
		start, _ := startEnd(q, i)
		start.floor = float32(math.Inf(1))
		s.checkInvariants()
	})
	requireInvariantPanic(t, "epoch mark past the entries", func() {
		s, q, _ := corruptibleSummary(t)
		q.epochs = append(q.epochs, epochMark{idx: int32(len(q.entries)), epoch: 1})
		s.checkInvariants()
	})
	requireInvariantPanic(t, "epoch marks not strictly increasing", func() {
		s, q, _ := corruptibleSummary(t)
		q.epochs = append(q.epochs, epochMark{idx: 1, epoch: 1}, epochMark{idx: 2, epoch: 1})
		s.checkInvariants()
	})
	requireInvariantPanic(t, "stored sqsum decreases", func() {
		s, q, i := corruptibleSummary(t)
		start, end := startEnd(q, i)
		end.sq = start.sq - 1
		s.checkInvariants()
	})
	requireInvariantPanic(t, "interval starts not strictly increasing", func() {
		s, q, i := corruptibleSummary(t)
		q.starts[i+1] = q.starts[i]
		s.checkInvariants()
	})
	requireInvariantPanic(t, "interval holds more than two entries", func() {
		s, q, i := corruptibleSummary(t)
		q.starts = append(q.starts[:i+1], q.starts[i+2:]...)
		s.checkInvariants()
	})
	// Push checks the summary it extended: a corrupt stored entry that the
	// push leaves in place is caught there.
	requireInvariantPanic(t, "push over a negative floor", func() {
		s, q, i := corruptibleSummary(t)
		_, end := startEnd(q, i)
		end.floor = -1
		s.Push(1)
	})
}
