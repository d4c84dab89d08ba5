//go:build streamhist_invariants

package agglom

import (
	"fmt"
	"math"
)

// invariantsEnabled reports whether this build carries the always-on
// assertion layer (see the streamhist_invariants build tag).
const invariantsEnabled = true

// checkInvariants asserts the structural invariants of the interval
// queues (Figure 3 of the paper) on their flat layout: interval starts
// index the entry list strictly increasingly from its first entry, each
// interval holds one or two entries, epoch marks index entries and name
// epochs strictly increasingly, absolute positions strictly increase
// along each queue, every stored approximate DP error is non-negative
// and respects the (1+delta) growth bound within its interval, every
// floor is finite and non-negative, and the stored prefix sums of
// squares are non-decreasing in stream position.
func (s *Summary) checkInvariants() {
	if s.runningSq < 0 {
		panic(fmt.Sprintf("agglom: invariant violation: running SQSUM %g negative", s.runningSq))
	}
	for qi := range s.queues {
		q := &s.queues[qi]
		if len(q.starts) == 0 {
			if len(q.entries) != 0 || len(q.epochs) != 0 {
				panic(fmt.Sprintf("agglom: invariant violation: queue %d stores %d entries and %d epoch marks but no interval", qi+1, len(q.entries), len(q.epochs)))
			}
			continue
		}
		if q.starts[0] != 0 {
			panic(fmt.Sprintf("agglom: invariant violation: queue %d first interval starts at entry %d", qi+1, q.starts[0]))
		}
		for i, st := range q.starts {
			next := len(q.entries)
			if i+1 < len(q.starts) {
				next = int(q.starts[i+1])
			}
			if next <= int(st) || next > len(q.entries) {
				panic(fmt.Sprintf("agglom: invariant violation: queue %d interval %d starts at entry %d, not before %d", qi+1, i, st, next))
			}
			if n := next - int(st); n > 2 {
				panic(fmt.Sprintf("agglom: invariant violation: queue %d interval %d holds %d entries, want 1 or 2", qi+1, i, n))
			}
			// Push opens a new interval as soon as HERROR exceeds
			// (1+delta)*start.herr, so the stored end always satisfies the
			// bound with the exact float values compared there.
			if start, end := q.entries[st].herr, q.entries[next-1].herr; end > (1+s.delta)*start {
				panic(fmt.Sprintf("agglom: invariant violation: queue %d interval %d grew %g -> %g beyond the (1+%g) bound", qi+1, i, start, end, s.delta))
			}
		}
		prev := epochMark{idx: -1}
		for _, m := range q.epochs {
			if m.idx <= prev.idx || int(m.idx) >= len(q.entries) || m.epoch <= prev.epoch {
				panic(fmt.Sprintf("agglom: invariant violation: queue %d epoch mark %+v does not follow %+v within %d entries", qi+1, m, prev, len(q.entries)))
			}
			prev = m
		}
		prevPos, epoch, mark := -1, 0, 0
		prevSq := -1.0
		for i, e := range q.entries {
			if mark < len(q.epochs) && int(q.epochs[mark].idx) == i {
				epoch = int(q.epochs[mark].epoch)
				mark++
			}
			pos := epoch<<32 + int(e.pos)
			if pos <= prevPos {
				panic(fmt.Sprintf("agglom: invariant violation: queue %d endpoint at %d not after %d", qi+1, pos, prevPos))
			}
			if e.herr < 0 {
				panic(fmt.Sprintf("agglom: invariant violation: queue %d has negative HERROR %g at position %d", qi+1, e.herr, pos))
			}
			if f := float64(e.floor); !(f >= 0) || math.IsInf(f, 1) {
				panic(fmt.Sprintf("agglom: invariant violation: queue %d has floor %g at position %d", qi+1, f, pos))
			}
			if e.sq < prevSq {
				panic(fmt.Sprintf("agglom: invariant violation: queue %d SQSUM decreases to %g at position %d", qi+1, e.sq, pos))
			}
			prevPos, prevSq = pos, e.sq
		}
	}
}
