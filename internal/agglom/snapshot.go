package agglom

import (
	"fmt"
	"math"

	"streamhist/internal/codec"
)

// snapshot format: magic "SAG1", then b, eps, n, running sums, and per
// queue the interval list with both endpoints; a single-position interval
// writes its one stored endpoint twice. Unlike the fixed-window snapshot,
// the queues must be persisted: they cannot be rebuilt without replaying
// the whole stream.
const snapshotMagic = "SAG1"

// MaxSnapshotBuckets bounds the bucket budget UnmarshalBinary will
// allocate for, so a corrupt snapshot cannot trigger huge allocations.
const MaxSnapshotBuckets = 1 << 20

// MarshalBinary snapshots the complete summary state, implementing
// encoding.BinaryMarshaler.
func (s *Summary) MarshalBinary() ([]byte, error) {
	w := codec.NewWriter(snapshotMagic)
	w.Int(s.b)
	w.Float64(s.eps)
	w.Int(s.n)
	w.Float64(s.runningSum)
	w.Float64(s.runningSq)
	w.Float64(s.herrTop)
	w.Int(len(s.queues))
	for qi := range s.queues {
		q := &s.queues[qi]
		w.Int(len(q.starts))
		for i := range q.starts {
			start, end := q.interval(i)
			for _, ep := range [2]endpoint{start, end} {
				w.Int(ep.pos)
				w.Float64(ep.sum)
				w.Float64(ep.sq)
				w.Float64(ep.herr)
			}
		}
	}
	return w.Bytes(), nil
}

// UnmarshalBinary restores a snapshot produced by MarshalBinary,
// implementing encoding.BinaryUnmarshaler. The receiver is replaced only
// on success, after structural validation of the decoded queues.
func (s *Summary) UnmarshalBinary(data []byte) error {
	r, err := codec.NewReader(data, snapshotMagic)
	if err != nil {
		return fmt.Errorf("agglom: %w", err)
	}
	b := r.Int()
	if b > MaxSnapshotBuckets {
		return fmt.Errorf("agglom: snapshot bucket budget %d exceeds limit %d", b, MaxSnapshotBuckets)
	}
	// Every queue contributes at least a length field; reject budgets the
	// remaining input cannot possibly describe before allocating them.
	if b > 2+r.Remaining()/8 {
		return fmt.Errorf("agglom: snapshot bucket budget %d exceeds input size", b)
	}
	eps := r.Float64()
	// n and the positions are read at full width: a stream can outgrow
	// 2^31 points, and the queues keep positions past 2^32 in epochs.
	n := int(r.Int64())
	runningSum := r.Float64()
	runningSq := r.Float64()
	if runningSq < 0 {
		return fmt.Errorf("agglom: snapshot running SQSUM %g negative", runningSq)
	}
	herrTop := r.Float64()
	numQueues := r.Int()
	if r.Err() != nil {
		return fmt.Errorf("agglom: %w", r.Err())
	}
	if n < 0 {
		return fmt.Errorf("agglom: snapshot point count %d negative", n)
	}
	restored, err := New(b, eps)
	if err != nil {
		return fmt.Errorf("agglom: snapshot config invalid: %w", err)
	}
	if numQueues != len(restored.queues) {
		return fmt.Errorf("agglom: snapshot has %d queues for B=%d", numQueues, b)
	}
	for qi := 0; qi < numQueues; qi++ {
		qLen := r.Int()
		if r.Err() != nil {
			return fmt.Errorf("agglom: %w", r.Err())
		}
		// Each interval needs 64 encoded bytes (two endpoints of four
		// 8-byte fields); reject lengths the remaining input cannot hold
		// before allocating.
		const intervalBytes = 64
		if qLen < 0 || qLen > n || qLen > r.Remaining()/intervalBytes {
			return fmt.Errorf("agglom: queue %d has implausible length %d", qi, qLen)
		}
		q := queue{entries: make([]entry, 0, 2*qLen), starts: make([]int32, 0, qLen)}
		prevEnd := -1
		prevSq := -1.0
		for i := 0; i < qLen; i++ {
			var pair [2]endpoint
			for j := range pair {
				pair[j] = endpoint{
					pos:  int(r.Int64()),
					sum:  r.Float64(),
					sq:   r.Float64(),
					herr: r.Float64(),
				}
			}
			start, end := pair[0], pair[1]
			if r.Err() != nil {
				return fmt.Errorf("agglom: %w", r.Err())
			}
			if start.pos <= prevEnd || end.pos < start.pos || end.pos >= n {
				return fmt.Errorf("agglom: queue %d interval %d malformed [%d,%d]",
					qi, i, start.pos, end.pos)
			}
			// A single-position interval is one stored endpoint written
			// twice. Halves that disagree would leave Push's (1+delta)
			// test reading one value and the scans another.
			if end.pos == start.pos && !sameEndpoint(start, end) {
				return fmt.Errorf("agglom: queue %d interval %d at position %d has differing endpoints",
					qi, i, start.pos)
			}
			// The same conditions checkInvariants asserts: non-negative
			// approximate DP errors within the (1+delta) growth bound, and
			// prefix sums of squares non-decreasing in stream position.
			if start.herr < 0 || end.herr < 0 || end.herr > (1+restored.delta)*start.herr {
				return fmt.Errorf("agglom: queue %d interval %d has malformed HERROR (%g,%g)",
					qi, i, start.herr, end.herr)
			}
			if start.sq < prevSq || end.sq < start.sq {
				return fmt.Errorf("agglom: queue %d interval %d has decreasing SQSUM", qi, i)
			}
			// A snapshot carries no floors; restored entries get the
			// floor 0, which bounds nothing.
			q.add(start.pos, entry{sum: start.sum, sq: start.sq, herr: start.herr}, true)
			if end.pos != start.pos {
				q.add(end.pos, entry{sum: end.sum, sq: end.sq, herr: end.herr}, false)
			}
			prevSq = end.sq
			prevEnd = end.pos
		}
		restored.queues[qi] = q
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("agglom: %w", err)
	}
	restored.n = n
	restored.runningSum = runningSum
	restored.runningSq = runningSq
	restored.herrTop = herrTop
	restored.m = s.m // the metrics attachment survives a restore
	*s = *restored
	// Under the streamhist_invariants tag, re-assert the full queue
	// invariants on the restored state (the decode loop validates
	// positions, but not the HERROR growth bounds).
	s.checkInvariants()
	return nil
}

// sameEndpoint reports whether a and b are bit-for-bit the same endpoint.
func sameEndpoint(a, b endpoint) bool {
	return a.pos == b.pos &&
		math.Float64bits(a.sum) == math.Float64bits(b.sum) &&
		math.Float64bits(a.sq) == math.Float64bits(b.sq) &&
		math.Float64bits(a.herr) == math.Float64bits(b.herr)
}
