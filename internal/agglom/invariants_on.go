//go:build streamhist_invariants

package agglom

import "fmt"

// invariantsEnabled reports whether this build carries the always-on
// assertion layer (see the streamhist_invariants build tag).
const invariantsEnabled = true

// checkInvariants asserts the structural invariants of the interval
// queues (Figure 3 of the paper) on their flat layout: interval starts
// index the endpoint list strictly increasingly from its first entry,
// each interval holds one or two entries, endpoint positions strictly
// increase along each queue, every stored approximate DP error is
// non-negative and respects the (1+delta) growth bound within its
// interval, and the stored prefix sums of squares are non-decreasing in
// stream position.
func (s *Summary) checkInvariants() {
	if s.runningSq < 0 {
		panic(fmt.Sprintf("agglom: invariant violation: running SQSUM %g negative", s.runningSq))
	}
	for qi := range s.queues {
		q := &s.queues[qi]
		if len(q.starts) == 0 {
			if len(q.eps) != 0 {
				panic(fmt.Sprintf("agglom: invariant violation: queue %d stores %d endpoints but no interval", qi+1, len(q.eps)))
			}
			continue
		}
		if q.starts[0] != 0 {
			panic(fmt.Sprintf("agglom: invariant violation: queue %d first interval starts at entry %d", qi+1, q.starts[0]))
		}
		for i, st := range q.starts {
			next := len(q.eps)
			if i+1 < len(q.starts) {
				next = int(q.starts[i+1])
			}
			if next <= int(st) {
				panic(fmt.Sprintf("agglom: invariant violation: queue %d interval %d starts at entry %d, not before %d", qi+1, i, st, next))
			}
			if n := next - int(st); n > 2 {
				panic(fmt.Sprintf("agglom: invariant violation: queue %d interval %d holds %d entries, want 1 or 2", qi+1, i, n))
			}
		}
		prevPos := -1
		prevSq := -1.0
		for _, ep := range q.eps {
			if ep.pos <= prevPos {
				panic(fmt.Sprintf("agglom: invariant violation: queue %d endpoint at %d not after %d", qi+1, ep.pos, prevPos))
			}
			if ep.herr < 0 {
				panic(fmt.Sprintf("agglom: invariant violation: queue %d has negative HERROR %g at position %d", qi+1, ep.herr, ep.pos))
			}
			if ep.sq < prevSq {
				panic(fmt.Sprintf("agglom: invariant violation: queue %d SQSUM decreases to %g at position %d", qi+1, ep.sq, ep.pos))
			}
			prevPos, prevSq = ep.pos, ep.sq
		}
		for i := range q.starts {
			// Push opens a new interval as soon as HERROR exceeds
			// (1+delta)*start.herr, so the stored end always satisfies the
			// bound with the exact float values compared there.
			if start, end := q.interval(i); end.herr > (1+s.delta)*start.herr {
				panic(fmt.Sprintf("agglom: invariant violation: queue %d interval %d grew %g -> %g beyond the (1+%g) bound", qi+1, i, start.herr, end.herr, s.delta))
			}
		}
	}
}
