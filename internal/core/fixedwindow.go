// Package core implements Algorithm FixedWindowHistogram (Figure 5 of
// Guha & Koudas, ICDE 2002), the paper's primary contribution: incremental
// maintenance of an epsilon-approximate B-bucket V-optimal histogram over
// the most recent n points of a data stream, in O((B^3/eps^2) log^3 n) time
// per arriving point (Theorem 1).
//
// For each bucket count k = 1..B-1 the algorithm maintains a queue of
// intervals over window positions such that the k-bucket DP error
// HERROR[.,k] grows by at most a (1+delta) factor within each interval,
// delta = eps/(2B). Unlike the agglomerative algorithm, these queues cannot
// be carried from one window to the next (section 4.4: a shifted function
// invalidates the interval cover), so every maintenance pass re-derives
// them with CreateList: a recursion that locates each next interval
// endpoint by binary search, evaluating HERROR only at O(log n) probe
// positions per interval rather than at every buffer position. The
// production rebuild seeds each search from the previous pass's cover
// shifted by the slide and memoizes probes within a level; both leave the
// produced queues bit-identical to the paper's cold search, which
// Reference keeps as the test oracle. The optional incremental engine
// (incremental.go) repairs the previous cover in place instead.
// HERROR at a probe is evaluated by minimizing over the (few) stored
// endpoints of the queue one level below, never over all n positions.
package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	rtrace "runtime/trace"
	"time"

	"streamhist/internal/errs"
	"streamhist/internal/histogram"
	"streamhist/internal/obs"
	"streamhist/internal/prefix"
	"streamhist/internal/trace"
)

// iv is one interval [A..B] of a queue: HERROR[x,k] stays within a
// (1+delta) factor of HErrA for all x in the interval. Positions are
// window-local (0 = oldest point in the window).
type iv struct {
	A, B         int
	HErrA, HErrB float64
}

// FixedWindow maintains the approximate histogram over a sliding window.
// The zero value is unusable; construct with New or NewWithDelta.
type FixedWindow struct {
	b     int
	eps   float64
	delta float64

	sums   *prefix.SlidingSums
	queues [][]iv // queues[k-1] is the paper's k-th queue, k = 1..b-1

	herrTop float64 // approximate HERROR[w-1, B] after the last rebuild
	dirty   bool    // lazy mode: queues stale, rebuild before next query

	// Warm start: the previous rebuild's interval queues, swapped with
	// queues at the start of each rebuild so both sets of backing arrays
	// reach steady-state capacity and stay allocation-free.
	prev   [][]iv
	lastWS int64 // WindowStart at the rebuild that built the current queues

	// Probe memo: an epoch-stamped flat table over window positions.
	// Keys (the probe positions c of one CreateList level) are dense
	// integers in [0, n), so the open-addressed table degenerates to the
	// identity hash — a direct-indexed array that never probes. The epoch
	// advances per level per rebuild, invalidating the whole table in O(1)
	// without clearing it; entries whose stamp is not the current epoch are
	// vacant. Stamp and value share one 16-byte entry so a probe touches a
	// single cache line. Zero allocations steady-state: the table is sized
	// to the window capacity once.
	memo  []memoEnt
	epoch uint64
	shift int // window slide between the prev queues and this rebuild

	// Incremental cover repair (see incremental.go). incrValid marks the
	// queues as a maintainable cover of a window of lastW points starting
	// at lastWS; rebuild establishes it, and the incremental pass keeps it
	// true while re-validating, repairing and extending the cover in
	// place.
	incrOn     bool
	incrEvery  int   // test override of the exact-rebuild period (0 = derived)
	incrBudget int   // test override of the per-pass repair budget (0 = derived)
	incrValid  bool  // queues hold a maintainable cover
	incrSince  int   // incremental passes since the last exact rebuild
	incrCursor []int // per-level rotating re-validation cursors
	lastW      int   // window length the current cover spans

	// Instrumentation for the ablation experiments.
	evals      int64 // HERROR evaluations since creation
	candidates int64 // candidate endpoints inspected across evaluations
	memoHits   int64 // probes answered from the memo
	memoMisses int64 // probes computed and stored in the memo
	warmHits   int64 // intervals whose endpoint was seeded from prev
	warmMisses int64 // intervals that fell back to gallopEndpoint

	incrHits      int64 // maintenance passes completed incrementally
	incrRepairs   int64 // interval endpoints repaired by re-search
	incrFallbacks int64 // passes that fell back to the exact rebuild

	// Flight recorder (nil = disabled, the obs contract). traceParent is
	// the span the next rebuild attributes itself to — the Push span on
	// the eager path, or the request span that forced a lazy flush.
	tr          *trace.Recorder
	traceParent trace.SpanID

	// Observability (all handles nil until SetRegistry; nil handles no-op).
	m           fwMetrics
	pending     int64 // points pushed since the last rebuild
	expEvals    int64 // evals already exported to m.evals
	expCands    int64 // candidates already exported to m.candidates
	expMemoHit  int64 // memoHits already exported to m.memoHits
	expMemoMiss int64 // memoMisses already exported to m.memoMisses
	expWarmHit  int64 // warmHits already exported to m.warmHits
	expWarmMiss int64 // warmMisses already exported to m.warmFallbacks
	expIncrHit  int64 // incrHits already exported to m.incrHits
	expIncrRep  int64 // incrRepairs already exported to m.incrRepairs
	expIncrFall int64 // incrFallbacks already exported to m.incrFallbacks
}

// memoEnt is one probe-memo slot: the HERROR value computed at this
// window position, valid only while its stamp matches the current epoch.
type memoEnt struct {
	stamp uint64
	val   float64
}

// fwMetrics holds the maintainer's instrumentation handles. The zero
// value (all nil) is the disabled state: every operation on a nil obs
// handle is an allocation-free no-op, keeping Push at its uninstrumented
// cost when no registry is attached.
type fwMetrics struct {
	push          *obs.Track   // full-maintenance Push latency
	rebuilds      *obs.Counter // interval-queue rebuilds
	createLists   *obs.Counter // CreateList invocations (one per level per rebuild)
	evals         *obs.Counter // HERROR evaluations (binary-search probes)
	candidates    *obs.Counter // boundary candidates inspected across evaluations
	flushes       *obs.Counter // lazy/batched maintenance passes
	flushPoints   *obs.Counter // points applied by those passes
	memoHits      *obs.Counter // probe-memo hits
	memoMisses    *obs.Counter // probe-memo misses
	warmHits      *obs.Counter // warm-started interval endpoints accepted
	warmFallbacks *obs.Counter // warm-start guesses that fell back to search
	incrHits      *obs.Counter // incremental maintenance passes
	incrRepairs   *obs.Counter // incremental endpoint repairs
	incrFallbacks *obs.Counter // incremental passes that fell back to rebuild
}

// SetRegistry attaches the maintainer to a metrics registry, registering
// its series there; the same registry may back any number of maintainers
// (their counts aggregate). A nil registry detaches instrumentation.
func (f *FixedWindow) SetRegistry(reg *obs.Registry) {
	f.m = fwMetrics{
		push:          reg.Track("streamhist_core_push_seconds", "Full per-point maintenance (Push) latency in seconds."),
		rebuilds:      reg.Counter("streamhist_core_rebuilds_total", "Interval-queue rebuilds (one per Push, one per lazy flush)."),
		createLists:   reg.Counter("streamhist_core_createlist_total", "CreateList invocations (one per queue level per rebuild)."),
		evals:         reg.Counter("streamhist_core_herr_evals_total", "Approximate HERROR evaluations (binary-search probes)."),
		candidates:    reg.Counter("streamhist_core_herr_candidates_total", "Boundary candidates inspected across HERROR evaluations."),
		flushes:       reg.Counter("streamhist_core_lazy_flushes_total", "Deferred maintenance passes (PushLazy bursts and PushBatch calls)."),
		flushPoints:   reg.Counter("streamhist_core_lazy_flush_points_total", "Points applied by deferred maintenance passes."),
		memoHits:      reg.Counter("streamhist_core_memo_hits_total", "HERROR probes answered from the per-rebuild memo."),
		memoMisses:    reg.Counter("streamhist_core_memo_misses_total", "HERROR probes computed and stored in the per-rebuild memo."),
		warmHits:      reg.Counter("streamhist_core_warm_hits_total", "CreateList intervals whose endpoint was seeded from the previous rebuild's cover."),
		warmFallbacks: reg.Counter("streamhist_core_warm_fallbacks_total", "CreateList intervals whose warm-start guess failed verification and fell back to search."),
		incrHits:      reg.Counter("streamhist_core_incr_hits_total", "Maintenance passes completed by incremental cover repair."),
		incrRepairs:   reg.Counter("streamhist_core_incr_repairs_total", "Interval endpoints repaired by incremental re-search."),
		incrFallbacks: reg.Counter("streamhist_core_incr_fallbacks_total", "Incremental-mode passes that fell back to the exact rebuild (schedule, budget overrun, or an unmaintainable cover)."),
	}
	// Counter handles dedup by name, so the ratio reads the aggregate
	// across every maintainer on the registry; the schedule alone puts its
	// baseline at 1/K, and a workload that defeats the incremental path
	// drives it toward 1.
	hits, falls := f.m.incrHits, f.m.incrFallbacks
	reg.GaugeFunc("streamhist_core_incr_fallback_ratio",
		"Fraction of incremental-mode maintenance passes that fell back to the exact rebuild.",
		func() float64 {
			h, fb := hits.Value(), falls.Value()
			if h+fb == 0 {
				return 0
			}
			return float64(fb) / float64(h+fb)
		})
}

// SetTracer attaches the maintainer to a flight recorder: every rebuild
// records a span with per-level CreateList stats and memo/warm-start
// summaries, and slow rebuilds trigger the recorder's anomaly capture.
// A nil recorder detaches (the default): all tracing code degenerates to
// a pointer test and Push stays allocation-free.
func (f *FixedWindow) SetTracer(tr *trace.Recorder) { f.tr = tr }

// SetTraceParent sets the span the next rebuild (and any events under
// it) is attributed to. The server threads the active request's span ID
// through here before operations that may trigger maintenance; 0 makes
// rebuilds trace roots.
func (f *FixedWindow) SetTraceParent(p trace.SpanID) { f.traceParent = p }

// New creates a fixed-window maintainer for windows of capacity n, b
// buckets and precision eps; delta is set to eps/(2B) as in the paper.
func New(n, b int, eps float64) (*FixedWindow, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("core: %w, got %g", errs.ErrBadEpsilon, eps)
	}
	return NewWithDelta(n, b, eps, eps/(2*float64(b)))
}

// NewWithDelta creates a fixed-window maintainer with an explicit per-level
// growth factor delta. The paper's worked Example 1 uses delta = eps
// directly; the analysis uses delta = eps/(2B). Exposing delta makes both
// reproducible and enables the delta-sensitivity ablation.
func NewWithDelta(n, b int, eps, delta float64) (*FixedWindow, error) {
	if b <= 0 {
		return nil, fmt.Errorf("core: %w, got %d", errs.ErrBadBuckets, b)
	}
	if delta <= 0 {
		return nil, fmt.Errorf("core: %w, got delta %g", errs.ErrBadDelta, delta)
	}
	sums, err := prefix.NewSlidingSums(n)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	f := &FixedWindow{b: b, eps: eps, delta: delta, sums: sums}
	if b > 1 {
		f.queues = make([][]iv, b-1)
		f.prev = make([][]iv, b-1)
	}
	return f, nil
}

// Capacity returns the window capacity n.
func (f *FixedWindow) Capacity() int { return f.sums.Capacity() }

// Len returns the number of points currently in the window.
func (f *FixedWindow) Len() int { return f.sums.Len() }

// Seen returns the total number of points pushed.
func (f *FixedWindow) Seen() int64 { return f.sums.Seen() }

// Buckets returns the bucket budget B.
func (f *FixedWindow) Buckets() int { return f.b }

// Epsilon returns the configured precision.
func (f *FixedWindow) Epsilon() float64 { return f.eps }

// Delta returns the per-level growth factor in use.
func (f *FixedWindow) Delta() float64 { return f.delta }

// Evals returns the number of HERROR evaluations performed so far, and
// the number of candidate boundaries inspected across them. Probes
// answered by the memo are not evaluations; add MemoStats hits for the
// number of logical probe requests.
func (f *FixedWindow) Evals() (evaluations, candidatesInspected int64) {
	return f.evals, f.candidates
}

// MemoStats returns the probe-memo hit and miss counts since creation.
func (f *FixedWindow) MemoStats() (hits, misses int64) {
	return f.memoHits, f.memoMisses
}

// WarmStats returns, since creation, the number of CreateList intervals
// whose endpoint was accepted from a warm-start seed and the number that
// fell back to the gallop + binary search.
func (f *FixedWindow) WarmStats() (seeded, fallbacks int64) {
	return f.warmHits, f.warmMisses
}

// Push consumes the next stream point and performs the per-point
// maintenance of Figure 5: slide the window, then rebuild the interval
// queues with CreateList and recompute the approximate B-bucket error.
func (f *FixedWindow) Push(v float64) {
	start := f.m.push.Start()
	saved := f.traceParent
	psp := f.tr.StartSpan(saved, trace.EvPush, 0, 0, 1)
	if f.tr != nil {
		f.traceParent = psp.ID()
	}
	f.sums.Push(v)
	f.pending++
	f.maintain()
	f.traceParent = saved
	psp.End(0, 0)
	f.m.push.ObserveSince(start)
}

// PushLazy consumes the next stream point but defers queue maintenance to
// the next query. Use it when the stream is consumed in bursts between
// queries; Push is the faithful per-point algorithm.
func (f *FixedWindow) PushLazy(v float64) {
	f.sums.Push(v)
	f.pending++
	f.dirty = true
}

// PushBatch consumes a batch of points and performs a single maintenance
// pass at the end — the batched-arrivals model footnote 2 of the paper
// notes the framework incorporates. It is equivalent to PushLazy for each
// point followed by one maintenance pass: exactly one rebuild (or one
// incremental repair pass) per batch, never one per element.
func (f *FixedWindow) PushBatch(vs []float64) {
	for _, v := range vs {
		f.sums.Push(v)
	}
	f.pending += int64(len(vs))
	f.maintain()
}

// ApproxError returns the approximate HERROR[n-1, B] over the current
// window: within a (1+eps) factor of the optimal B-bucket SSE. Because the
// boundary candidate of each evaluation is valued with the error at the
// start of its covering interval, the value can underestimate the best
// achievable SSE by up to a (1+delta) factor; with the paper's
// delta = eps/(2B) this is absorbed by the (1+eps) guarantee. For the exact
// SSE of a concrete bucketization use Histogram.
func (f *FixedWindow) ApproxError() float64 {
	f.ensureFresh()
	return f.herrTop
}

// Window returns a copy of the current window contents, oldest first.
func (f *FixedWindow) Window() []float64 { return f.sums.Values() }

// WindowStart returns the stream position of the oldest point in the
// window.
func (f *FixedWindow) WindowStart() int64 { return f.sums.WindowStart() }

func (f *FixedWindow) ensureFresh() {
	if f.dirty {
		f.maintain()
	}
}

// rebuild reconstructs all interval queues for the current window and
// recomputes the approximate top-level error. This is the body of
// Algorithm FixedWindowHistogram.
func (f *FixedWindow) rebuild() {
	lazy := f.dirty
	f.dirty = false
	w := f.sums.Len()
	if w == 0 {
		f.herrTop = 0
		f.pending = 0
		f.incrValid = false
		f.lastW = 0
		return
	}
	pending := f.pending // f.pending is zeroed below; the trace span reports it
	traced := f.tr != nil
	var rspan trace.Span
	var region *rtrace.Region
	if traced {
		rspan = f.tr.StartSpan(f.traceParent, trace.EvRebuild, 0, int64(w), pending)
		if rtrace.IsEnabled() {
			region = rtrace.StartRegion(context.Background(), "streamhist.rebuild")
		}
	}
	ws := f.sums.WindowStart()
	f.ensureMemo()
	// Retire the current queues as the warm-start source. lastWS dates
	// them, so the slide between the two windows maps old positions to
	// new ones even across batched arrivals or evictions.
	f.queues, f.prev = f.prev, f.queues
	f.shift = int(ws - f.lastWS)
	for k := 1; k <= f.b-1; k++ {
		f.epoch++ // new level: all memo entries become vacant in O(1)
		f.queues[k-1] = f.queues[k-1][:0]
		if traced {
			evals0, memo0 := f.evals, f.memoHits
			lstart := f.tr.Now()
			if region != nil {
				rtrace.WithRegion(context.Background(), "streamhist.createList", func() {
					f.createList(0, w-1, k)
				})
			} else {
				f.createList(0, w-1, k)
			}
			code := k
			if code > 255 {
				code = 255
			}
			f.tr.Instant(trace.EvLevel, uint8(code), rspan.ID(),
				time.Duration(f.tr.Now()-lstart),
				(f.evals-evals0)+(f.memoHits-memo0), int64(len(f.queues[k-1])))
		} else {
			f.createList(0, w-1, k)
		}
	}
	f.epoch++
	f.herrTop = f.evalHErr(w-1, f.b)
	f.lastWS = ws
	f.lastW = w
	f.incrValid = f.b > 1
	f.incrSince = 0
	f.m.rebuilds.Inc()
	f.m.createLists.Add(int64(f.b - 1))
	if lazy || f.pending > 1 {
		// This rebuild flushed deferred maintenance: record the burst size.
		f.m.flushes.Inc()
		f.m.flushPoints.Add(f.pending)
	}
	f.pending = 0
	if traced {
		// The exp* cursors still hold the previous rebuild's totals here,
		// so the differences are exactly this rebuild's contribution.
		f.tr.Instant(trace.EvMemo, 0, rspan.ID(), 0, f.memoHits-f.expMemoHit, f.memoMisses-f.expMemoMiss)
		f.tr.Instant(trace.EvWarm, 0, rspan.ID(), 0, f.warmHits-f.expWarmHit, f.warmMisses-f.expWarmMiss)
	}
	f.exportCounters()
	if traced {
		if region != nil {
			region.End()
		}
		dur := rspan.End(int64(w), pending)
		f.tr.MaybeCaptureSlow(dur, trace.CaptureStats{
			Window:        w,
			Buckets:       f.b,
			Eps:           f.eps,
			Delta:         f.delta,
			Pending:       pending,
			Evals:         f.evals,
			Candidates:    f.candidates,
			MemoHits:      f.memoHits,
			MemoMisses:    f.memoMisses,
			WarmHits:      f.warmHits,
			WarmFallbacks: f.warmMisses,
		})
	}
	f.checkCover(w)
}

// ensureMemo sizes the probe memo to the window capacity on the first
// maintenance pass; steady state allocates nothing.
func (f *FixedWindow) ensureMemo() {
	if len(f.memo) < f.sums.Capacity() {
		f.memo = make([]memoEnt, f.sums.Capacity())
		f.epoch = 0 // stamps restart below the zeroed table
	}
}

// exportCounters publishes the deltas of the cumulative instrumentation
// counters to the attached registry. Both maintenance paths end with it;
// the exp* cursors make repeated calls idempotent.
func (f *FixedWindow) exportCounters() {
	f.m.evals.Add(f.evals - f.expEvals)
	f.m.candidates.Add(f.candidates - f.expCands)
	f.expEvals, f.expCands = f.evals, f.candidates
	f.m.memoHits.Add(f.memoHits - f.expMemoHit)
	f.m.memoMisses.Add(f.memoMisses - f.expMemoMiss)
	f.m.warmHits.Add(f.warmHits - f.expWarmHit)
	f.m.warmFallbacks.Add(f.warmMisses - f.expWarmMiss)
	f.expMemoHit, f.expMemoMiss = f.memoHits, f.memoMisses
	f.expWarmHit, f.expWarmMiss = f.warmHits, f.warmMisses
	f.m.incrHits.Add(f.incrHits - f.expIncrHit)
	f.m.incrRepairs.Add(f.incrRepairs - f.expIncrRep)
	f.m.incrFallbacks.Add(f.incrFallbacks - f.expIncrFall)
	f.expIncrHit, f.expIncrRep, f.expIncrFall = f.incrHits, f.incrRepairs, f.incrFallbacks
}

// createList builds the interval cover of [a..b] for level k (Figure 5's
// CreateList[a,b,k]), appending to queues[k-1]. Written iteratively: the
// paper's tail recursion "insert c; CreateList(c+1,b,k)" is a loop.
//
// Each interval's endpoint is first guessed from the previous pass's
// cover at this level, shifted by the window slide: consecutive windows
// differ by a one-point shift (a batch flush slides by the burst size), so
// a stable cover verifies in O(1) probes per interval instead of the
// O(log interval-length) of the gallop + binary search. The guess is
// accepted only if the search's own post-condition holds — predicate true
// at the guess, false just past it — so the produced cover is the one the
// cold search (Reference) builds.
func (f *FixedWindow) createList(a, b, k int) {
	q := &f.queues[k-1]
	prev := f.prev[k-1]
	j := 0 // cursor into prev; interval starts only move right
	lo := a
	for lo <= b {
		t := f.evalHErr(lo, k)
		c, herrC := lo, t
		if lo < b {
			oldPos := lo + f.shift
			for j < len(prev) && prev[j].B < oldPos {
				j++
			}
			if j < len(prev) {
				g := prev[j].B - f.shift
				if g < lo {
					g = lo
				}
				if g > b {
					g = b
				}
				c, herrC = f.warmEndpoint(lo, b, k, t, g)
			} else {
				f.warmMisses++ // cover outgrew the previous window
				c, herrC = f.gallopEndpoint(lo, b, k, (1+f.delta)*t, t)
			}
		}
		*q = append(*q, iv{A: lo, B: c, HErrA: t, HErrB: herrC})
		lo = c + 1
	}
}

// warmEndpoint locates the interval endpoint starting from a warm-start
// guess g in [lo..hi]. When the cover is stable across the window slide
// the guess verifies with at most two probes — predicate true at g, false
// at g+1, the same post-condition gallopEndpoint establishes — so the
// interval costs O(1) evaluations. When the cover drifted, it gallops
// from the guess toward the true endpoint and binary-searches the
// bracket, costing O(log drift) instead of O(log interval-length). Under
// the monotone predicate both strategies locate the identical endpoint
// the cold search would return.
func (f *FixedWindow) warmEndpoint(lo, hi, k int, t float64, g int) (int, float64) {
	thr := (1 + f.delta) * t
	val := t
	if g > lo {
		v := f.evalHErr(g, k)
		if v > thr {
			// Endpoint lies left of the guess: gallop backward from g over
			// aligned positions (see gallopEndpoint) so the memo can reuse
			// them across searches — the same backward search an
			// incremental endpoint repair performs.
			f.warmMisses++
			return f.repairEndpoint(lo, g, k, thr, t)
		}
		val = v
	}
	if g >= hi {
		f.warmHits++
		return g, val
	}
	v := f.evalHErr(g+1, k)
	if v > thr {
		f.warmHits++
		return g, val
	}
	// Endpoint lies right of the guess: gallop forward from g+1.
	f.warmMisses++
	return f.gallopEndpoint(g+1, hi, k, thr, v)
}

// gallopEndpoint finds the maximal c in [l..hi] with HERROR[c,k] <= thr
// (or c == hi), given that the predicate holds at l with value val.
// HERROR[.,k] is non-decreasing, so the predicate is monotone up to the
// (1+delta)-bounded evaluation slack, which the approximation analysis
// absorbs. It gallops from l at roughly doubling distances until a probe
// fails, then binary-searches the bracketed range, so the cost is
// O(log interval-length) evaluations rather than O(log n) — the two are
// equal for long intervals, and galloping is far cheaper in the
// small-delta regime where intervals span a few positions.
//
// The gallop probes power-of-two-aligned positions instead of l+2^t:
// iteration t probes the first multiple of 2^t past l, which advances
// geometrically just like the classic gallop (same O(log distance) probe
// count) but lands on positions that are independent of the search's
// starting point. Adjacent interval searches within a level then probe
// the same aligned positions, and the memo collapses the repeats to array
// loads. Either probe schedule brackets the same endpoint under the
// monotone predicate.
func (f *FixedWindow) gallopEndpoint(l, hi, k int, thr, val float64) (int, float64) {
	h := hi
	for t := 0; ; t++ {
		p := ((l >> t) + 1) << t
		if p > hi {
			break
		}
		v := f.evalHErr(p, k)
		if v > thr {
			h = p - 1
			break
		}
		l = p
		val = v
	}
	return f.bisectEndpoint(l, h, k, thr, val)
}

// bisectEndpoint returns the maximal c in [l..h] satisfying the
// predicate, given that it holds at l with value val and fails just past
// h.
//
// It probes the coarsest power-of-two-aligned position inside (l..h]
// instead of the midpoint — the probe a binary trie descent would make.
// The bracket still shrinks geometrically, and trie-aligned probes recur
// across the searches of a level far more often than bracket-dependent
// midpoints do, feeding the memo. Both probe rules are exact binary
// searches over the same monotone predicate, so they return the
// identical endpoint.
func (f *FixedWindow) bisectEndpoint(l, h, k int, thr, val float64) (int, float64) {
	for l < h {
		t := bits.Len(uint(l^h)) - 1
		p := ((l >> t) + 1) << t // coarsest aligned position in (l..h]
		if v := f.evalHErr(p, k); v <= thr {
			l = p
			val = v
		} else {
			h = p - 1
		}
	}
	return l, val
}

// evalHErr returns the approximate HERROR[c,k], consulting the per-level
// probe memo first. Within one CreateList level the value at a position
// never changes (it depends only on the completed queue one level below),
// so a memo hit is exact; the gallop, binary-search and warm-verification
// phases of adjacent intervals probe overlapping positions, and the memo
// collapses those repeats to array loads.
//
// Contract: the memo is keyed by position only — every call between two
// epoch bumps must use the same k (rebuild bumps the epoch per level).
// Callers probing across levels outside a rebuild must use herrAt.
func (f *FixedWindow) evalHErr(c, k int) float64 {
	if e := &f.memo[c]; e.stamp == f.epoch {
		f.memoHits++
		return e.val
	}
	v := f.herrAt(c, k)
	f.memoMisses++
	f.memo[c] = memoEnt{stamp: f.epoch, val: v}
	return v
}

// herrAt computes the approximate HERROR[c,k]: the SSE of the best
// k-bucket histogram over window positions [0..c], minimizing the last
// bucket boundary over the stored endpoints of queue k-1 (plus the
// boundary candidate c-1 valued via the start of the interval containing
// it, see DESIGN.md). SQERROR terms come from the sliding prefix sums in
// O(1), through a fixed-right-endpoint evaluator that hoists the terms at
// c out of the scan.
func (f *FixedWindow) herrAt(c, k int) float64 {
	f.evals++
	if k <= 1 || c == 0 {
		return f.sums.SQError(0, c)
	}
	q := f.queues[k-2]
	best := math.Inf(1)
	// idx: last interval whose endpoint B <= c-1.
	idx := lastEndpointBefore(q, c)
	// Boundary candidate: i = c-1 inside interval idx+1, valued with that
	// interval's start error (a lower bound within (1+delta) of the true
	// HERROR[c-1,k-1]); its last bucket [c..c] has zero SQERROR.
	if idx+1 < len(q) && q[idx+1].A <= c-1 {
		best = q[idx+1].HErrA
	}
	// Backward scan over interval endpoints. SQERROR of the last bucket
	// grows as the boundary moves left, so once it alone reaches best no
	// earlier candidate can win: safe early exit.
	//
	// The SQERROR terms are open-coded against the window-anchored prefix
	// arrays instead of going through prefix.Suffix: the hoisted scalars
	// stay in registers across the scan, where the 80-byte evaluator
	// struct cost a block copy per probe. The arithmetic is the same
	// expression Suffix.SQError evaluates, so results are bit-identical
	// (pinned by the reference-vs-production equivalence suite).
	psum, psq := f.sums.Anchored()
	sumHi, sqHi := psum[c+1], psq[c+1]
	for i := idx; i >= 0; i-- {
		f.candidates++
		b1 := q[i].B + 1
		var se float64
		if c > b1 {
			sum := sumHi - psum[b1]
			sq := sqHi - psq[b1]
			se = sq - sum*sum/float64(c-b1+1)
			if se < 0 {
				se = 0
			}
		}
		if se >= best {
			break
		}
		if v := q[i].HErrB + se; v < best {
			best = v
		}
	}
	if math.IsInf(best, 1) {
		// No stored boundary precedes c: a single bucket covers [0..c].
		best = f.sums.SQError(0, c)
	}
	return best
}

// lastEndpointBefore returns the largest index i with q[i].B <= c-1, or -1.
func lastEndpointBefore(q []iv, c int) int {
	lo, hi := 0, len(q)-1
	res := -1
	for lo <= hi {
		mid := int(uint(lo+hi) >> 1)
		if q[mid].B <= c-1 {
			res = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return res
}

// Result bundles the extracted histogram and its exact SSE over the window.
type Result struct {
	// Histogram uses window-local positions (0 = oldest point).
	Histogram *histogram.Histogram
	// SSE is the exact sum squared error of Histogram over the window.
	SSE float64
}

// Histogram extracts the current approximate B-bucket histogram of the
// window. Boundaries are chosen by backtracking the level-by-level
// minimization over the stored endpoints; bucket values are exact means
// from the sliding prefix sums, and the reported SSE is the exact SSE of
// the returned bucketization.
func (f *FixedWindow) Histogram() (*Result, error) {
	f.ensureFresh()
	w := f.sums.Len()
	if w == 0 {
		return nil, fmt.Errorf("core: empty window")
	}
	boundaries := make([]int, 0, f.b)
	end := w - 1
	boundaries = append(boundaries, end)
	for k := f.b; k >= 2 && end > 0; k-- {
		i, ok := f.argminBoundary(end, k)
		if !ok {
			break
		}
		end = i
		boundaries = append(boundaries, end)
	}
	// Reverse into increasing order.
	for l, r := 0, len(boundaries)-1; l < r; l, r = l+1, r-1 {
		boundaries[l], boundaries[r] = boundaries[r], boundaries[l]
	}
	buckets := make([]histogram.Bucket, 0, len(boundaries))
	sse := 0.0
	start := 0
	for _, endPos := range boundaries {
		buckets = append(buckets, histogram.Bucket{
			Start: start,
			End:   endPos,
			Value: f.sums.Mean(start, endPos),
		})
		sse += f.sums.SQError(start, endPos)
		start = endPos + 1
	}
	h := &histogram.Histogram{Buckets: buckets}
	if err := h.Validate(); err != nil {
		return nil, fmt.Errorf("core: internal extraction error: %w", err)
	}
	return &Result{Histogram: h, SSE: sse}, nil
}

// argminBoundary returns the boundary i (last position of the first k-1
// buckets) minimizing HERROR[i,k-1] + SQERROR[i+1,end], over the stored
// endpoints of queue k-1 plus the boundary candidate end-1.
func (f *FixedWindow) argminBoundary(end, k int) (int, bool) {
	if k <= 1 {
		return 0, false
	}
	q := f.queues[k-2]
	best := math.Inf(1)
	bestI := -1
	idx := lastEndpointBefore(q, end)
	if idx+1 < len(q) && q[idx+1].A <= end-1 {
		best = q[idx+1].HErrA
		bestI = end - 1
	}
	sf := f.sums.Suffix(end)
	for i := idx; i >= 0; i-- {
		se := sf.SQError(q[i].B + 1)
		if se >= best {
			break
		}
		if v := q[i].HErrB + se; v < best {
			best = v
			bestI = q[i].B
		}
	}
	if bestI < 0 {
		return 0, false
	}
	return bestI, true
}

// Interval is one interval of a queue's cover, exposed for equivalence
// testing and debugging: HERROR[x,k] stays within a (1+delta) factor of
// HErrA for every x in [A, B].
type Interval struct {
	A, B         int
	HErrA, HErrB float64
}

// Cover returns a copy of the interval cover at level k (1 <= k <= B-1).
// The cross-check suites compare covers between the production engine and
// Reference; outside tests it is a debugging aid, not a hot-path API.
func (f *FixedWindow) Cover(k int) []Interval {
	f.ensureFresh()
	if k < 1 || k > len(f.queues) {
		return nil
	}
	q := f.queues[k-1]
	out := make([]Interval, len(q))
	for i, in := range q {
		out[i] = Interval{A: in.A, B: in.B, HErrA: in.HErrA, HErrB: in.HErrB}
	}
	return out
}

// QueueSizes returns the current number of intervals in each queue,
// level 1 first. Used by the space accounting in the experiments.
func (f *FixedWindow) QueueSizes() []int {
	f.ensureFresh()
	out := make([]int, len(f.queues))
	for i, q := range f.queues {
		out[i] = len(q)
	}
	return out
}
