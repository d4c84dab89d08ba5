package agglom

import (
	"fmt"
	"math"

	"streamhist/internal/codec"
	"streamhist/internal/histogram"
)

// refSummary is the per-interval formulation of Figure 3 that Summary's
// flat queues replace: each queue is a slice of start/end pairs, a
// single-position interval stores its endpoint twice, and one general
// scan with a per-candidate position test serves both Push and Histogram.
// It is kept as the differential oracle: Summary must agree with it bit
// for bit on every answer and every snapshot byte.
type refSummary struct {
	b          int
	eps, delta float64
	n          int
	runningSum float64
	runningSq  float64
	queues     [][]refInterval
	herr       []float64
	herrTop    float64
}

type refInterval struct {
	start, end endpoint
}

func newRef(b int, eps float64) *refSummary {
	s := &refSummary{b: b, eps: eps, delta: eps / (2 * float64(b)), herr: make([]float64, b)}
	if b > 1 {
		s.queues = make([][]refInterval, b-1)
	}
	return s
}

func (s *refSummary) QueueSizes() []int {
	out := make([]int, len(s.queues))
	for i, q := range s.queues {
		out[i] = len(q)
	}
	return out
}

func (s *refSummary) Push(v float64) {
	pos := s.n
	s.runningSum += v
	s.runningSq += v * v
	s.n++
	s.herr[0] = clampNonNeg(s.runningSq - s.runningSum*s.runningSum/float64(pos+1))
	for k := 2; k <= s.b; k++ {
		s.herr[k-1] = s.minOverQueue(k-2, pos, s.runningSum, s.runningSq)
	}
	s.herrTop = s.herr[s.b-1]
	for k := 0; k < s.b-1; k++ {
		ep := endpoint{pos: pos, sum: s.runningSum, sq: s.runningSq, herr: s.herr[k]}
		q := s.queues[k]
		if len(q) == 0 {
			s.queues[k] = append(q, refInterval{start: ep, end: ep})
			continue
		}
		last := &q[len(q)-1]
		if s.herr[k] > (1+s.delta)*last.start.herr {
			s.queues[k] = append(q, refInterval{start: ep, end: ep})
		} else {
			last.end = ep
		}
	}
}

func (s *refSummary) minOverQueue(qi, endPos int, endSum, endSq float64) float64 {
	q := s.queues[qi]
	best := math.Inf(1)
	found := false
scan:
	for i := len(q) - 1; i >= 0; i-- {
		iv := &q[i]
		for _, ep := range [2]*endpoint{&iv.end, &iv.start} {
			if ep.pos > endPos-1 {
				continue
			}
			se := refSqErrBetween(ep, endPos, endSum, endSq)
			if found && se >= best {
				break scan
			}
			if e := ep.herr + se; e < best {
				best = e
			}
			found = true
			if iv.end.pos == iv.start.pos {
				break
			}
		}
	}
	if !found {
		return clampNonNeg(endSq - endSum*endSum/float64(endPos+1))
	}
	return best
}

func refSqErrBetween(ep *endpoint, endPos int, endSum, endSq float64) float64 {
	m := endPos - ep.pos
	if m <= 0 {
		return 0
	}
	sum := endSum - ep.sum
	sq := endSq - ep.sq
	return clampNonNeg(sq - sum*sum/float64(m))
}

func (s *refSummary) Histogram() (*Result, error) {
	if s.n == 0 {
		return nil, fmt.Errorf("agglom: no data")
	}
	cuts := make([]cut, 0, s.b)
	cur := cut{pos: s.n - 1, sum: s.runningSum, sq: s.runningSq}
	cuts = append(cuts, cur)
	for k := s.b; k >= 2; k-- {
		var bestEp *endpoint
		best := math.Inf(1)
		q := s.queues[k-2]
	scan:
		for i := len(q) - 1; i >= 0; i-- {
			iv := &q[i]
			for _, ep := range [2]*endpoint{&iv.end, &iv.start} {
				if ep.pos > cur.pos-1 {
					continue
				}
				se := sqErrBetweenCut(ep, cur)
				if bestEp != nil && se >= best {
					break scan
				}
				if e := ep.herr + se; e < best {
					best = e
					bestEp = ep
				}
				if iv.end.pos == iv.start.pos {
					break
				}
			}
		}
		if bestEp == nil {
			break
		}
		cur = cut{pos: bestEp.pos, sum: bestEp.sum, sq: bestEp.sq}
		cuts = append(cuts, cur)
	}
	buckets := make([]histogram.Bucket, 0, len(cuts))
	sse := 0.0
	prev := cut{pos: -1, sum: 0, sq: 0}
	for i := len(cuts) - 1; i >= 0; i-- {
		c := cuts[i]
		m := float64(c.pos - prev.pos)
		sum := c.sum - prev.sum
		sq := c.sq - prev.sq
		buckets = append(buckets, histogram.Bucket{Start: prev.pos + 1, End: c.pos, Value: sum / m})
		sse += clampNonNeg(sq - sum*sum/m)
		prev = c
	}
	h := &histogram.Histogram{Buckets: buckets}
	if err := h.Validate(); err != nil {
		return nil, fmt.Errorf("agglom: internal extraction error: %w", err)
	}
	return &Result{Histogram: h, SSE: sse}, nil
}

func (s *refSummary) MarshalBinary() []byte {
	w := codec.NewWriter(snapshotMagic)
	w.Int(s.b)
	w.Float64(s.eps)
	w.Int(s.n)
	w.Float64(s.runningSum)
	w.Float64(s.runningSq)
	w.Float64(s.herrTop)
	w.Int(len(s.queues))
	for _, q := range s.queues {
		w.Int(len(q))
		for _, iv := range q {
			for _, ep := range [2]endpoint{iv.start, iv.end} {
				w.Int(ep.pos)
				w.Float64(ep.sum)
				w.Float64(ep.sq)
				w.Float64(ep.herr)
			}
		}
	}
	return w.Bytes()
}
