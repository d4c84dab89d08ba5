package core

import (
	"streamhist/internal/trace"
)

// Incremental cover repair: the window slide invalidates the interval
// queues in theory (section 4.4 of the paper), but the (1+delta) slack
// each interval already carries makes most of a cover reusable in
// practice. A slide by s positions maps old window position p to p-s; the
// true HERROR at a surviving prefix can only decrease under eviction of
// the oldest point (removing a point never raises the optimal SSE of a
// prefix), so the stored per-interval bounds become over-estimates rather
// than lies. The incremental pass below exploits that: it shifts the
// cover in place, re-anchors the head, re-validates a rotating sample of
// endpoints against fresh probes, repairs only the endpoints whose
// (1+delta) containment check fails — galloping backward from the stale
// endpoint — and extends coverage to the new right edge. Staleness is
// bounded two ways: the rotating cursor re-validates every interval at
// least once between exact rebuilds, and a full exact rebuild runs at
// least every K passes (K derived from delta). Either a repair
// cascade exceeding the per-pass budget or the K-pass schedule falls back
// to the exact createList path, so the engine degrades to the verified
// baseline instead of accumulating drift. See DESIGN.md section 11 for
// the validity invariant and the staleness-budget argument.

// incrDefaultFloor and incrDefaultCeil clamp the derived full-rebuild
// period K = 1/(2 delta): large-delta configurations still amortize over
// at least a few passes, and tiny-delta ones do not defer the exact
// rebuild indefinitely.
const (
	incrDefaultFloor = 8
	incrDefaultCeil  = 4096
)

// SetIncrementalRebuild toggles the incremental cover-repair engine
// (default off). When on, per-point maintenance re-validates and repairs
// the existing interval queues instead of rebuilding them, falling back
// to the exact createList path on a repair-budget overrun and at least
// every K = 1/(2 delta) passes (clamped to [8, 4096]). Unlike the exact
// rebuild the produced cover is not bit-identical to the cold search's:
// stored HERROR bounds may be stale by up to one fallback period, which
// widens the per-level containment factor from (1+delta) to at most
// (1+delta)^2 between exact rebuilds — the approximation-bound
// equivalence suite pins the resulting ApproxError drift.
func (f *FixedWindow) SetIncrementalRebuild(on bool) { f.incrOn = on }

// IncrementalRebuild reports whether the incremental cover-repair engine
// is enabled. Batch appliers use it to decide between eager per-batch
// maintenance (cheap under incremental repair) and deferring to the next
// query's flush.
func (f *FixedWindow) IncrementalRebuild() bool { return f.incrOn }

// IncrementalStats returns, since creation, the number of maintenance
// passes completed incrementally, the number of interval endpoints
// repaired by re-search, and the number of passes that fell back to the
// exact rebuild (schedule, budget overrun, or ineligible cover).
func (f *FixedWindow) IncrementalStats() (hits, repairs, fallbacks int64) {
	return f.incrHits, f.incrRepairs, f.incrFallbacks
}

// maintain runs one maintenance pass: the incremental repair path when it
// is enabled and applicable, the exact rebuild otherwise. Every mutation
// funnel (Push, PushBatch, lazy flush, time-window eviction) ends here.
//
//streamhist:hotpath
func (f *FixedWindow) maintain() {
	if f.incrOn {
		if f.incrementalPass() {
			return
		}
		if f.incrValid {
			// There was a maintainable cover and the pass declined it:
			// scheduled exact rebuild, budget overrun, or a slide past the
			// cover. All are fallbacks to the operator — the gauge's
			// baseline rate is 1/K from the schedule alone.
			f.incrFallbacks++
		}
	}
	f.rebuild()
}

// incrEveryEff resolves the full-rebuild period K = 1/(2 delta).
func (f *FixedWindow) incrEveryEff() int {
	if f.incrEvery > 0 {
		return f.incrEvery
	}
	k := int(1 / (2 * f.delta))
	if k < incrDefaultFloor {
		k = incrDefaultFloor
	}
	if k > incrDefaultCeil {
		k = incrDefaultCeil
	}
	return k
}

// incrBudgetEff resolves the per-pass repair budget: a quarter of the
// current cover size, at least 16.
func (f *FixedWindow) incrBudgetEff() int {
	if f.incrBudget > 0 {
		return f.incrBudget
	}
	q := 0
	for _, lvl := range f.queues {
		q += len(lvl)
	}
	// Past a quarter of the cover the repair cascade costs what a
	// warm-started exact rebuild would; stop pretending and fall back.
	b := q / 4
	if b < 16 {
		b = 16
	}
	return b
}

// incrementalPass attempts one incremental maintenance pass over all
// levels. It returns false without touching dirty/pending bookkeeping
// when the cover is not incrementally maintainable (so rebuild runs with
// its accounting intact); partially-updated queues on an aborted pass are
// harmless because the fallback rebuild re-derives every level and
// verifies every warm seed.
//
//streamhist:hotpath
func (f *FixedWindow) incrementalPass() bool {
	if !f.incrValid || f.b <= 1 {
		return false
	}
	w := f.sums.Len()
	if w == 0 || f.lastW == 0 {
		return false
	}
	if f.incrSince >= f.incrEveryEff() {
		return false // scheduled exact rebuild re-canonicalizes the cover
	}
	ws := f.sums.WindowStart()
	shift := int(ws - f.lastWS)
	if shift < 0 || shift >= f.lastW {
		return false // cover fully evicted: nothing to repair
	}
	f.ensureMemo()
	if len(f.incrCursor) < f.b-1 {
		f.incrCursor = make([]int, f.b-1)
	}

	pending := f.pending
	lazy := f.dirty
	traced := f.tr != nil
	var rspan trace.Span
	if traced {
		// Code 1 marks the incremental path on the rebuild span.
		rspan = f.tr.StartSpan(f.traceParent, trace.EvRebuild, 1, int64(w), pending)
	}
	budget := f.incrBudgetEff()
	repairs0 := f.incrRepairs
	for k := 1; k <= f.b-1; k++ {
		f.epoch++ // new level: memo entries go vacant in O(1)
		if !f.incrLevel(k, shift, w, &budget) {
			if traced {
				rspan.End(int64(w), 0)
			}
			return false
		}
	}
	f.epoch++
	f.herrTop = f.evalHErr(w-1, f.b)
	f.lastWS = ws
	f.lastW = w
	f.incrSince++
	f.incrHits++
	f.dirty = false
	if lazy || pending > 1 {
		f.m.flushes.Inc()
		f.m.flushPoints.Add(pending)
	}
	f.pending = 0
	if traced {
		f.tr.Instant(trace.EvIncrRepair, 0, rspan.ID(), 0, f.incrRepairs-repairs0, int64(f.b-1))
	}
	f.exportCounters()
	if traced {
		rspan.End(int64(w), pending)
	}
	f.checkCover(w)
	return true
}

// incrLevel maintains the level-k cover across a slide of shift
// positions: drop evicted intervals, re-anchor the head at position 0,
// adopt surviving intervals with their (possibly stale, always
// over-estimating) stored bounds, re-validate the rotating sample plus
// the head and tail with fresh probes, repair violated endpoints by
// galloping backward from the stale endpoint, and extend coverage to the
// new right edge. The updated cover is written into the retired scratch
// array of the level (unused between exact rebuilds) and swapped in, so
// steady state allocates nothing. Returns false when the repair budget
// runs out.
//
//streamhist:hotpath
func (f *FixedWindow) incrLevel(k, shift, w int, budget *int) bool {
	src := f.queues[k-1]
	dst := f.prev[k-1][:0]
	n := len(src)
	j := 0
	for j < n && src[j].B < shift {
		j++ // interval entirely evicted
	}
	if j == n {
		return false // defensive: the shift guard keeps the last interval alive
	}
	// Rotating re-validation window over source indices, sized so every
	// interval gets fresh probes at least once between exact rebuilds.
	reval := n/f.incrEveryEff() + 2
	cur := f.incrCursor[k-1] % n
	f.incrCursor[k-1] = (cur + reval) % n
	thrMul := 1 + f.delta
	lo := 0
	for lo <= w-1 {
		if j < n {
			a, bEnd := src[j].A-shift, src[j].B-shift
			if bEnd > w-1 {
				return false // defensive: cover may never outrun the window
			}
			sampled := j-cur < reval && j >= cur
			if !sampled && cur+reval > n {
				sampled = j < cur+reval-n // cursor window wraps
			}
			if a == lo && len(dst) > 0 && j < n-1 && !sampled {
				// Aligned, interior, not sampled: adopt with stored bounds.
				dst = append(dst, iv{A: lo, B: bEnd, HErrA: src[j].HErrA, HErrB: src[j].HErrB})
				lo = bEnd + 1
				j++
				continue
			}
			// Head clamp (a < lo after the shift), repair-cascade overlap,
			// or a sampled interval: re-anchor at lo with fresh probes.
			t := f.evalHErr(lo, k)
			thr := thrMul * t
			hB := t
			if bEnd > lo {
				hB = f.evalHErr(bEnd, k)
			}
			if hB <= thr {
				dst = append(dst, iv{A: lo, B: bEnd, HErrA: t, HErrB: hB})
				lo = bEnd + 1
				j++
				continue
			}
			// Containment violated: repair by re-search from the stale
			// endpoint.
			if *budget == 0 {
				return false
			}
			*budget--
			f.incrRepairs++
			c, hc := f.repairEndpoint(lo, bEnd, k, thr, t)
			dst = append(dst, iv{A: lo, B: c, HErrA: t, HErrB: hc})
			lo = c + 1
			for j < n && src[j].B-shift <= c {
				j++ // cascade: swallowed by the repaired interval
			}
			continue
		}
		// Past the old cover: extend to the right edge. The common
		// slide-by-one case stretches the last interval with one probe.
		if len(dst) > 0 {
			last := &dst[len(dst)-1]
			if hW := f.evalHErr(w-1, k); hW <= thrMul*last.HErrA {
				last.B, last.HErrB = w-1, hW
				break
			}
		}
		t := f.evalHErr(lo, k)
		c, hc := f.gallopEndpoint(lo, w-1, k, thrMul*t, t)
		dst = append(dst, iv{A: lo, B: c, HErrA: t, HErrB: hc})
		lo = c + 1
	}
	f.queues[k-1], f.prev[k-1] = dst, src
	return true
}

// repairEndpoint finds the maximal c in [lo, g) with
// HERROR[c,k] <= thr, given the predicate holds at lo with value t and is
// known to fail at the stale endpoint g. It gallops backward from g over
// power-of-two-aligned positions (the memo-friendly schedule
// gallopEndpoint documents) and binary-searches the bracket, so a repair
// costs O(log drift) probes rather than O(log interval-length).
//
//streamhist:hotpath
func (f *FixedWindow) repairEndpoint(lo, g, k int, thr, t float64) (int, float64) {
	l, lval := lo, t
	h, p := g-1, g
	for i := 0; ; i++ {
		np := ((p - 1) >> i) << i // largest multiple of 2^i below p
		if np <= lo {
			break
		}
		p = np
		if v := f.evalHErr(p, k); v <= thr {
			l, lval = p, v
			break
		}
		h = p - 1
	}
	return f.bisectEndpoint(l, h, k, thr, lval)
}
