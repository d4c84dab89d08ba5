// Package agglom implements Algorithm AgglomerativeHistogram (Figure 3 of
// Guha & Koudas, ICDE 2002; originally GKS01/STOC'01): a one-pass,
// small-space algorithm that maintains an epsilon-approximate B-bucket
// V-optimal histogram of everything seen since the beginning of a stream.
//
// The algorithm keeps, for every bucket count k = 1..B-1, a queue of
// intervals over stream positions such that the k-bucket DP error
// HERROR[.,k] grows by at most a (1+delta) factor inside each interval,
// delta = eps/(2B). When a new point arrives, HERROR[j,k] is computed by
// minimizing over the stored interval endpoints of queue k-1 instead of
// over all previous positions, which reduces the per-point work from O(n)
// to O((B/delta) log n) and the space to O((B^2/eps) log n): only a running
// prefix sum is kept, and full prefix sums are stored only at interval
// endpoints.
package agglom

import (
	"fmt"
	"math"
	"sort"

	"streamhist/internal/errs"
	"streamhist/internal/histogram"
	"streamhist/internal/obs"
)

// endpoint is an interval endpoint with its absolute stream position:
// the form the SAG1 codec reads and writes and Histogram's descent walks.
type endpoint struct {
	pos  int     // 0-based stream position
	sum  float64 // prefix sum of values through pos, inclusive
	sq   float64 // prefix sum of squared values through pos, inclusive
	herr float64 // approximate HERROR[pos, k] for the queue's level k
}

// entry is an endpoint as a queue stores it, in 32 bytes. pos keeps the
// position's low 32 bits; the queue's epoch marks supply the rest.
// floor is HERROR[pos, k+1] as the scan over this very queue returned it
// when pos arrived, rounded toward zero: a lower bound minOverQueue uses
// to stop early (DESIGN.md §13). It is 0, which bounds nothing, for an
// entry restored from a snapshot and when that error was not finite.
type entry struct {
	pos   uint32  // stream position modulo 2^32
	floor float32 // HERROR[pos, k+1] rounded toward zero; >= 0, finite
	sum   float64 // prefix sum of values through pos, inclusive
	sq    float64 // prefix sum of squared values through pos, inclusive
	herr  float64 // approximate HERROR[pos, k] for the queue's level k
}

// epochMark records that entries from idx on lie in epoch epoch, at
// positions epoch<<32 + entry.pos, until the next mark.
type epochMark struct {
	idx   int32
	epoch int32
}

// queue is one level's interval queue. An interval is a maximal run of
// positions over which HERROR[.,k] stays within a (1+delta) factor of its
// value at the start; only its first and last positions carry stored
// state. The queue keeps them flat, in position order: every interval's
// start and, once the interval spans more than one position, its end,
// which is overwritten in place while the interval keeps extending. A
// single-position interval therefore stores one entry, not a duplicate.
// Walking entries backwards visits each interval's end, then its start,
// most recent interval first.
type queue struct {
	entries []entry
	starts  []int32 // starts[i] indexes interval i's start in entries
	// epochs marks the first entry of each 2^32-position epoch after the
	// first that holds entries; it is empty below 2^32 points.
	epochs []epochMark
}

// lastStart returns the start entry of the queue's newest interval. The
// queue must be non-empty.
func (q *queue) lastStart() *entry { return &q.entries[q.starts[len(q.starts)-1]] }

// add stores position pos with e's sums, errors and floor: as a new
// single-position interval when open is set, else as the newest
// interval's end. The first extension of a single-position interval
// appends its end; later ones overwrite it. Positions must increase
// from call to call.
func (q *queue) add(pos int, e entry, open bool) {
	e.pos = uint32(pos)
	switch last := len(q.entries) - 1; {
	case open:
		q.starts = append(q.starts, int32(len(q.entries)))
		q.entries = append(q.entries, e)
	case int(q.starts[len(q.starts)-1]) < last:
		q.entries[last] = e
	default:
		q.entries = append(q.entries, e)
	}
	// Mark the entry just stored if its epoch is not the newest entry's.
	epoch, idx := int32(pos>>32), int32(len(q.entries)-1)
	switch m := len(q.epochs) - 1; {
	case m < 0 && epoch == 0, m >= 0 && q.epochs[m].epoch == epoch:
	case m >= 0 && q.epochs[m].idx == idx:
		q.epochs[m].epoch = epoch // the overwritten end was its epoch's only entry
	default:
		q.epochs = append(q.epochs, epochMark{idx: idx, epoch: epoch})
	}
}

// endpoint returns entry i with its absolute position.
func (q *queue) endpoint(i int) endpoint {
	e := &q.entries[i]
	pos := int(e.pos)
	// The last mark at or before i gives i's epoch.
	if m := sort.Search(len(q.epochs), func(m int) bool { return int(q.epochs[m].idx) > i }); m > 0 {
		pos += int(q.epochs[m-1].epoch) << 32
	}
	return endpoint{pos: pos, sum: e.sum, sq: e.sq, herr: e.herr}
}

// interval returns interval i's start and end endpoints; they are the
// same entry when the interval spans a single position.
func (q *queue) interval(i int) (start, end endpoint) {
	e := len(q.entries) - 1
	if i+1 < len(q.starts) {
		e = int(q.starts[i+1]) - 1
	}
	return q.endpoint(int(q.starts[i])), q.endpoint(e)
}

// Summary is the streaming state. The zero value is unusable; construct
// with New.
type Summary struct {
	b     int
	eps   float64
	delta float64

	n          int     // points seen
	runningSum float64 // prefix sum through position n-1
	runningSq  float64

	// queues[k] holds the interval queue for level k+1 buckets,
	// k = 0..b-2 (the paper's queues 1..B-1).
	queues []queue

	herr    []float64 // scratch: herr[k] = HERROR[current, k+1]
	herrTop float64   // approximate HERROR[n-1, B]

	// evals counts the candidates minOverQueue evaluated, over every
	// point since New or the last restore: the scan work TestScanWork pins.
	evals int64

	// Observability (all handles nil until SetRegistry; nil handles no-op).
	m aggMetrics
}

// aggMetrics holds the summary's instrumentation handles; the zero value
// (all nil) is the disabled state.
type aggMetrics struct {
	points   *obs.Counter // points consumed
	opened   *obs.Counter // intervals opened (error grew past (1+delta))
	extended *obs.Counter // interval endpoint extensions (the "merge" case)
}

// SetRegistry attaches the summary to a metrics registry, registering its
// series there. A nil registry detaches instrumentation. The summary
// publishes no endpoint gauge: StoredEndpoints reports its own count, and
// the shard engine publishes streamhist_agglom_endpoints as the total
// over every stream.
func (s *Summary) SetRegistry(reg *obs.Registry) {
	s.m = aggMetrics{
		points:   reg.Counter("streamhist_agglom_points_total", "Points consumed by the agglomerative whole-stream summary."),
		opened:   reg.Counter("streamhist_agglom_intervals_opened_total", "Interval-queue intervals opened (per-level error grew past the (1+delta) budget)."),
		extended: reg.Counter("streamhist_agglom_interval_extensions_total", "Interval endpoint extensions (arrivals absorbed into the last interval)."),
	}
	s.checkInvariants()
}

// New creates an agglomerative summary targeting b buckets with precision
// eps (the histogram error is within a (1+eps) factor of optimal).
func New(b int, eps float64) (*Summary, error) {
	if b <= 0 {
		return nil, fmt.Errorf("agglom: %w, got %d", errs.ErrBadBuckets, b)
	}
	if !(eps > 0 && eps <= math.MaxFloat64) {
		return nil, fmt.Errorf("agglom: %w, got %g", errs.ErrBadEpsilon, eps)
	}
	s := &Summary{
		b:     b,
		eps:   eps,
		delta: eps / (2 * float64(b)),
		herr:  make([]float64, b),
	}
	if b > 1 {
		s.queues = make([]queue, b-1)
	}
	return s, nil
}

// Buckets returns the configured bucket budget B.
func (s *Summary) Buckets() int { return s.b }

// Epsilon returns the configured precision.
func (s *Summary) Epsilon() float64 { return s.eps }

// N returns the number of points consumed so far.
func (s *Summary) N() int { return s.n }

// ApproxError returns the current approximate HERROR[n-1, B]: the SSE of
// the maintained B-bucket histogram, within a (1+eps) factor of the optimal
// B-bucket SSE.
func (s *Summary) ApproxError() float64 { return s.herrTop }

// StoredEndpoints reports the total number of endpoints retained across all
// queues — the algorithm's working-set size, used by the space experiments.
// It counts two per interval, as the paper does, even though a
// single-position interval stores one entry.
func (s *Summary) StoredEndpoints() int {
	total := 0
	for i := range s.queues {
		total += 2 * len(s.queues[i].starts)
	}
	return total
}

// QueueSizes returns the number of intervals per queue, level 1 first.
// The analysis bounds each at O((1/delta) log(HERROR_max)).
func (s *Summary) QueueSizes() []int {
	out := make([]int, len(s.queues))
	for i := range s.queues {
		out[i] = len(s.queues[i].starts)
	}
	return out
}

// PushBatch consumes a batch of points in arrival order. The
// agglomerative update is inherently per-point; the batch form only adds
// the summary's counters once per call rather than once per point, since
// a registry's counters are shared by every stream that reports there.
func (s *Summary) PushBatch(vs []float64) {
	opened := 0
	for _, v := range vs {
		opened += s.push(v)
	}
	s.count(len(vs), opened)
}

// Push consumes the next stream point.
func (s *Summary) Push(v float64) {
	s.count(1, s.push(v))
}

// count adds points consumed and the intervals they opened to the
// summary's counters; every other queue update was an extension.
func (s *Summary) count(points, opened int) {
	s.m.points.Add(int64(points))
	s.m.opened.Add(int64(opened))
	s.m.extended.Add(int64(points*len(s.queues) - opened))
}

// push consumes the next stream point and returns how many queues opened
// an interval for it.
func (s *Summary) push(v float64) (opened int) {
	pos := s.n
	s.runningSum += v
	s.runningSq += v * v
	s.n++

	// HERROR[pos, 1] is exact: the SSE of one bucket over [0..pos].
	s.herr[0] = clampNonNeg(s.runningSq - s.runningSum*s.runningSum/float64(pos+1))

	// HERROR[pos, k] for k = 2..B, minimizing over endpoints of queue k-1.
	// At this moment the queues cover positions [0..pos-1], so every
	// stored endpoint is a legal last-bucket boundary. The margin absorbs
	// rounding in the floor test (DESIGN.md §13).
	margin := 0x1p-40 * s.runningSq
	for k := 2; k <= s.b; k++ {
		e, evals := minOverQueue(&s.queues[k-2], pos, s.runningSum, s.runningSq, margin)
		s.herr[k-1] = e
		s.evals += int64(evals)
	}
	s.herrTop = s.herr[s.b-1]

	// Update the queues with position pos (lines 7-10 of Figure 3). The
	// entry queues[k] stores carries, as its floor, herr[k+1]: the value
	// the scan over queues[k] itself just returned.
	for k := 0; k < s.b-1; k++ {
		q := &s.queues[k]
		open := len(q.starts) == 0 || s.herr[k] > (1+s.delta)*q.lastStart().herr
		q.add(pos, entry{floor: floorOf(s.herr[k+1]), sum: s.runningSum, sq: s.runningSq, herr: s.herr[k]}, open)
		if open {
			opened++
		}
	}
	s.checkInvariants()
	return opened
}

// floorOf rounds a next-level error toward zero to a float32 floor. A
// non-finite error, which only a stream whose squares overflow produces,
// gets the floor 0, which bounds nothing.
func floorOf(x float64) float32 {
	if !(x >= 0) || math.IsInf(x, 1) {
		return 0
	}
	f := float32(x)
	if float64(f) > x {
		f = math.Nextafter32(f, 0)
	}
	return f
}

// minOverQueue evaluates min_i HERROR[i, k] + SQERROR[i+1..endPos] over the
// stored entries of queue q, for the arriving point at endPos whose
// inclusive prefix sums are endSum and endSq, and reports how many
// entries it evaluated. Push calls it before the queues take position
// endPos, so every stored entry precedes endPos and is a legal
// last-bucket boundary. With no stored entry (the stream's first point)
// the whole prefix is one bucket.
//
// The scan runs from the most recent entry backwards and stops on either
// of two bounds, each of which no earlier candidate can beat. Moving the
// boundary left only grows SQERROR of the last bucket, so once that term
// alone reaches the best value seen no earlier candidate can win: the
// same early exit the fixed-window evaluation uses. And every entry j
// before entry r was a candidate of the scan that set r's floor, so
// HERROR[j] + SQERROR[j+1..endPos] >= floor(r) + SQERROR[r+1..endPos]
// (DESIGN.md §13); once that reaches best plus margin, which absorbs
// rounding, the scan is done. Both exits leave the minimum the full scan
// finds, bit for bit. Candidates are taken in pairs with the floor tested
// on the older one, which halves the loop's bookkeeping: this is the
// daemon's hottest loop, and the pairs measured about 15% faster per
// point than single steps (B=16, age 4096, on a 2.1 GHz Xeon).
func minOverQueue(q *queue, endPos int, endSum, endSq, margin float64) (best float64, evals int) {
	es := q.entries
	if len(es) == 0 {
		return clampNonNeg(endSq - endSum*endSum/float64(endPos+1)), 0
	}
	best = math.Inf(1)
	var se float64
	var stop bool
	hi := len(es)
	// One pass per epoch, newest first; below 2^32 points there is one.
	for m := len(q.epochs); m >= 0; m-- {
		lo, end := 0, endPos
		if m > 0 {
			lo, end = int(q.epochs[m-1].idx), endPos-int(q.epochs[m-1].epoch)<<32
		}
		seg := es[lo:hi]
		if len(seg)%2 == 1 { // peel one candidate so the rest pair up
			n := len(seg)
			if best, _, stop = visit(&seg[n-1], end, endSum, endSq, best); stop {
				return best, len(es) - lo - n + 1
			}
			seg = seg[:n-1]
		}
		for len(seg) >= 2 {
			n := len(seg)
			if best, _, stop = visit(&seg[n-1], end, endSum, endSq, best); stop {
				return best, len(es) - lo - n + 1
			}
			b := &seg[n-2]
			if best, se, stop = visit(b, end, endSum, endSq, best); stop || float64(b.floor)+se >= best+margin {
				return best, len(es) - lo - n + 2
			}
			seg = seg[:n-2]
		}
		hi = lo
	}
	return best, len(es)
}

// visit evaluates candidate ep for the arriving point at position end
// relative to ep's epoch, and returns best, the minimum so far, lowered
// to ep's value if that is smaller, and ep's SQERROR of the last bucket.
// stop reports that SQERROR alone reached best, so no earlier candidate
// can win.
func visit(ep *entry, end int, endSum, endSq, best float64) (_, se float64, stop bool) {
	// ep.sum - endSum squares to the same value as endSum - ep.sum and
	// spares a register copy of endSum.
	sum := ep.sum - endSum
	se = clampNonNeg((endSq - ep.sq) - sum*sum/float64(end-int(ep.pos)))
	if se >= best {
		return best, se, true
	}
	if e := ep.herr + se; e < best {
		best = e
	}
	return best, se, false
}

func clampNonNeg(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// Result bundles the extracted histogram, its exact SSE (over the chosen
// bucketization, computed from stored prefix sums), and the bucket
// boundaries in stream positions.
type Result struct {
	Histogram *histogram.Histogram
	SSE       float64
}

// Histogram extracts the current approximate B-bucket histogram. Bucket
// boundaries are restricted to the stored interval endpoints; bucket
// representatives are exact means computed from the stored prefix sums. The
// reported SSE is the exact SSE of the returned bucketization.
func (s *Summary) Histogram() (*Result, error) {
	if s.n == 0 {
		return nil, fmt.Errorf("agglom: no data")
	}
	// Greedy top-down descent: at each level pick the stored endpoint
	// minimizing storedHERROR + SQERROR(last bucket), mirroring how the
	// online DP assembled its values.
	cuts := make([]cut, 0, s.b)
	cur := cut{pos: s.n - 1, sum: s.runningSum, sq: s.runningSq}
	cuts = append(cuts, cur)
	for k := s.b; k >= 2; k-- {
		q := &s.queues[k-2]
		var bestEp endpoint
		found := false
		best := math.Inf(1)
		for i := len(q.entries) - 1; i >= 0; i-- {
			ep := q.endpoint(i)
			if ep.pos > cur.pos-1 {
				continue
			}
			se := sqErrBetweenCut(&ep, cur)
			if found && se >= best {
				break
			}
			if e := ep.herr + se; e < best {
				best = e
				bestEp, found = ep, true
			}
		}
		if !found {
			break // fewer usable boundaries than buckets: done splitting
		}
		cur = cut{pos: bestEp.pos, sum: bestEp.sum, sq: bestEp.sq}
		cuts = append(cuts, cur)
	}
	// cuts holds bucket right-boundaries from last to first; reverse and
	// materialize buckets with exact means and exact SSE.
	buckets := make([]histogram.Bucket, 0, len(cuts))
	sse := 0.0
	prev := cut{pos: -1, sum: 0, sq: 0}
	for i := len(cuts) - 1; i >= 0; i-- {
		c := cuts[i]
		m := float64(c.pos - prev.pos)
		sum := c.sum - prev.sum
		sq := c.sq - prev.sq
		buckets = append(buckets, histogram.Bucket{
			Start: prev.pos + 1,
			End:   c.pos,
			Value: sum / m,
		})
		sse += clampNonNeg(sq - sum*sum/m)
		prev = c
	}
	h := &histogram.Histogram{Buckets: buckets}
	if err := h.Validate(); err != nil {
		return nil, fmt.Errorf("agglom: internal extraction error: %w", err)
	}
	return &Result{Histogram: h, SSE: sse}, nil
}

// cut is a chosen bucket right-boundary with its inclusive prefix sums.
type cut struct {
	pos int
	sum float64
	sq  float64
}

func sqErrBetweenCut(ep *endpoint, c cut) float64 {
	m := c.pos - ep.pos
	if m <= 0 {
		return 0
	}
	sum := c.sum - ep.sum
	sq := c.sq - ep.sq
	return clampNonNeg(sq - sum*sum/float64(m))
}

// Build runs the agglomerative algorithm over a finite, fully materialized
// sequence, solving Problem 2 of the paper (epsilon-approximate histograms)
// in a single pass, and returns the extracted histogram.
func Build(data []float64, b int, eps float64) (*Result, error) {
	s, err := New(b, eps)
	if err != nil {
		return nil, err
	}
	for _, v := range data {
		s.Push(v)
	}
	return s.Histogram()
}
