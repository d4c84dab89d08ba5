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

	"streamhist/internal/errs"
	"streamhist/internal/histogram"
	"streamhist/internal/obs"
)

// endpoint is a stream position at which the algorithm snapshotted the
// prefix sums and the current approximate DP error.
type endpoint struct {
	pos  int     // 0-based stream position
	sum  float64 // prefix sum of values through pos, inclusive
	sq   float64 // prefix sum of squared values through pos, inclusive
	herr float64 // approximate HERROR[pos, k] for the queue's level k
}

// queue is one level's interval queue. An interval is a maximal run of
// positions over which HERROR[.,k] stays within a (1+delta) factor of its
// value at the start; only its first and last positions carry stored
// state. The queue keeps them flat, in position order: every interval's
// start and, once the interval spans more than one position, its end,
// which is overwritten in place while the interval keeps extending. A
// single-position interval therefore stores one entry, not a duplicate.
// Walking eps backwards visits each interval's end, then its start, most
// recent interval first.
type queue struct {
	eps    []endpoint
	starts []int32 // starts[i] indexes interval i's start in eps
}

// lastStart returns the start endpoint of the queue's newest interval.
// The queue must be non-empty.
func (q *queue) lastStart() *endpoint { return &q.eps[q.starts[len(q.starts)-1]] }

// open appends a new single-position interval at ep.
func (q *queue) open(ep endpoint) {
	q.starts = append(q.starts, int32(len(q.eps)))
	q.eps = append(q.eps, ep)
}

// extend moves the newest interval's end to ep. The first extension of a
// single-position interval appends its end; later ones overwrite it.
func (q *queue) extend(ep endpoint) {
	if last := len(q.eps) - 1; int(q.starts[len(q.starts)-1]) < last {
		q.eps[last] = ep
		return
	}
	q.eps = append(q.eps, ep)
}

// interval returns interval i's start and end endpoints; they are the
// same entry when the interval spans a single position.
func (q *queue) interval(i int) (start, end endpoint) {
	e := len(q.eps) - 1
	if i+1 < len(q.starts) {
		e = int(q.starts[i+1]) - 1
	}
	return q.eps[q.starts[i]], q.eps[e]
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
	if eps <= 0 {
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

// PushBatch consumes a batch of points in arrival order. The agglomerative
// update is inherently per-point, so this is a convenience loop.
func (s *Summary) PushBatch(vs []float64) {
	for _, v := range vs {
		s.Push(v)
	}
}

// Push consumes the next stream point.
func (s *Summary) Push(v float64) {
	pos := s.n
	s.runningSum += v
	s.runningSq += v * v
	s.n++

	// HERROR[pos, 1] is exact: the SSE of one bucket over [0..pos].
	s.herr[0] = clampNonNeg(s.runningSq - s.runningSum*s.runningSum/float64(pos+1))

	// HERROR[pos, k] for k = 2..B, minimizing over endpoints of queue k-1.
	// At this moment the queues cover positions [0..pos-1], so every
	// stored endpoint is a legal last-bucket boundary.
	for k := 2; k <= s.b; k++ {
		s.herr[k-1] = minOverQueue(s.queues[k-2].eps, pos, s.runningSum, s.runningSq)
	}
	s.herrTop = s.herr[s.b-1]

	// Update the queues with position pos (lines 7-10 of Figure 3).
	for k := 0; k < s.b-1; k++ {
		ep := endpoint{pos: pos, sum: s.runningSum, sq: s.runningSq, herr: s.herr[k]}
		q := &s.queues[k]
		if len(q.starts) == 0 || s.herr[k] > (1+s.delta)*q.lastStart().herr {
			q.open(ep)
			s.m.opened.Inc()
		} else {
			q.extend(ep)
			s.m.extended.Inc()
		}
	}
	s.m.points.Inc()
	s.checkInvariants()
}

// minOverQueue evaluates min_i HERROR[i, k] + SQERROR[i+1..endPos] over the
// stored endpoints eps of one queue, for the arriving point at endPos
// whose inclusive prefix sums are endSum and endSq. Push calls it before
// the queues take position endPos, so every stored endpoint precedes
// endPos and is a legal last-bucket boundary. With no stored endpoint
// (the stream's first point) the whole prefix is one bucket.
func minOverQueue(eps []endpoint, endPos int, endSum, endSq float64) float64 {
	i := len(eps) - 1
	if i < 0 {
		return clampNonNeg(endSq - endSum*endSum/float64(endPos+1))
	}
	best := math.Inf(1)
	if e := eps[i].herr + sqErrBefore(&eps[i], endPos, endSum, endSq); e < best {
		best = e
	}
	// Scan from the most recent endpoint backwards. Moving the boundary
	// left only grows SQERROR of the last bucket, so once that term alone
	// reaches the best value seen no earlier candidate can win: the same
	// early exit the fixed-window evaluation uses.
	for i--; i >= 0; i-- {
		ep := &eps[i]
		se := sqErrBefore(ep, endPos, endSum, endSq)
		if se >= best {
			break
		}
		if e := ep.herr + se; e < best {
			best = e
		}
	}
	return best
}

// sqErrBefore computes SQERROR[ep.pos+1 .. endPos] from the stored prefix
// sums at ep and the inclusive prefix sums at endPos; ep.pos < endPos.
func sqErrBefore(ep *endpoint, endPos int, endSum, endSq float64) float64 {
	sum := endSum - ep.sum
	return clampNonNeg((endSq - ep.sq) - sum*sum/float64(endPos-ep.pos))
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
		qi := k - 2
		var bestEp *endpoint
		best := math.Inf(1)
		eps := s.queues[qi].eps
		for i := len(eps) - 1; i >= 0; i-- {
			ep := &eps[i]
			if ep.pos > cur.pos-1 {
				continue
			}
			se := sqErrBetweenCut(ep, cur)
			if bestEp != nil && se >= best {
				break
			}
			if e := ep.herr + se; e < best {
				best = e
				bestEp = ep
			}
		}
		if bestEp == nil {
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
