// Package vhist implements value-domain histograms for selectivity
// estimation — the classical query-optimization application the paper
// motivates through Ioannidis & Poosala (SIGMOD'95) and Poosala &
// Ioannidis (VLDB'97). Where the rest of this library buckets a sequence
// by position, a value histogram buckets the value domain and estimates
// predicates like "count of rows with value in [a,b]".
//
// Two constructions are provided: an exact equi-width histogram from a
// full scan, and a streaming equi-depth histogram whose boundaries come
// from a Greenwald-Khanna quantile summary, so it can be built in one pass
// over a stream in sublinear space.
package vhist

import (
	"fmt"
	"math"
	"sort"

	"streamhist/internal/quantile"
)

// VBucket is a value-domain bucket: values in [Lo, Hi) with an estimated
// row count. The final bucket is closed on both ends.
type VBucket struct {
	Lo, Hi float64
	Count  float64
}

// VHistogram estimates value-range selectivities.
type VHistogram struct {
	buckets []VBucket
	total   float64
}

// Buckets returns the underlying buckets.
func (h *VHistogram) Buckets() []VBucket { return h.buckets }

// Total returns the total row count the histogram accounts for.
func (h *VHistogram) Total() float64 { return h.total }

// NumBuckets returns the bucket count.
func (h *VHistogram) NumBuckets() int { return len(h.buckets) }

// EstimateCount estimates the number of rows with value in [lo, hi]
// (inclusive), assuming uniform spread inside each bucket — the classical
// continuous-values assumption.
func (h *VHistogram) EstimateCount(lo, hi float64) float64 {
	if hi < lo || len(h.buckets) == 0 {
		return 0
	}
	est := 0.0
	for _, b := range h.buckets {
		width := b.Hi - b.Lo
		if width <= 0 {
			// Degenerate single-value bucket: counted fully when covered.
			if lo <= b.Lo && b.Lo <= hi {
				est += b.Count
			}
			continue
		}
		l := math.Max(lo, b.Lo)
		r := math.Min(hi, b.Hi)
		if r <= l {
			// No interior overlap; a point at a bucket edge carries zero
			// mass under the continuous uniform-spread assumption.
			continue
		}
		est += b.Count * (r - l) / width
	}
	return est
}

// Selectivity estimates the fraction of rows with value in [lo, hi].
func (h *VHistogram) Selectivity(lo, hi float64) float64 {
	if h.total == 0 {
		return 0
	}
	return h.EstimateCount(lo, hi) / h.total
}

// EqualWidth builds a b-bucket equi-width value histogram by a full scan.
func EqualWidth(data []float64, b int) (*VHistogram, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("vhist: empty data")
	}
	if b <= 0 {
		return nil, fmt.Errorf("vhist: need at least one bucket, got %d", b)
	}
	mn, mx := data[0], data[0]
	for _, v := range data {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if mx <= mn { // mx >= mn by construction, so this is equality
		return &VHistogram{
			buckets: []VBucket{{Lo: mn, Hi: mx, Count: float64(len(data))}},
			total:   float64(len(data)),
		}, nil
	}
	width := (mx - mn) / float64(b)
	buckets := make([]VBucket, b)
	for i := range buckets {
		buckets[i] = VBucket{Lo: mn + float64(i)*width, Hi: mn + float64(i+1)*width}
	}
	buckets[b-1].Hi = mx
	for _, v := range data {
		idx := int((v - mn) / width)
		if idx >= b {
			idx = b - 1
		}
		buckets[idx].Count++
	}
	return &VHistogram{buckets: buckets, total: float64(len(data))}, nil
}

// StreamingEqualDepth maintains an equi-depth value histogram over a
// stream: a GK quantile summary tracks the value distribution in one pass
// and sublinear space; Histogram snapshots the current b-bucket equi-depth
// histogram.
type StreamingEqualDepth struct {
	gk *quantile.GK
	b  int
}

// NewStreamingEqualDepth creates a streaming builder targeting b buckets.
// eps is the GK rank precision; eps <= 1/(2b) keeps bucket depths within
// a factor of two of each other.
func NewStreamingEqualDepth(b int, eps float64) (*StreamingEqualDepth, error) {
	if b <= 0 {
		return nil, fmt.Errorf("vhist: need at least one bucket, got %d", b)
	}
	gk, err := quantile.NewGK(eps)
	if err != nil {
		return nil, fmt.Errorf("vhist: %w", err)
	}
	return &StreamingEqualDepth{gk: gk, b: b}, nil
}

// Push consumes a stream value.
func (s *StreamingEqualDepth) Push(v float64) { s.gk.Insert(v) }

// N returns the number of values consumed.
func (s *StreamingEqualDepth) N() int64 { return s.gk.N() }

// Space returns the number of stored summary tuples.
func (s *StreamingEqualDepth) Space() int { return s.gk.Size() }

// Histogram snapshots the current equi-depth histogram: boundaries at the
// i/b quantiles, each bucket holding ~n/b rows.
func (s *StreamingEqualDepth) Histogram() (*VHistogram, error) {
	n := s.gk.N()
	if n == 0 {
		return nil, fmt.Errorf("vhist: no data")
	}
	edges := make([]float64, 0, s.b+1)
	for i := 0; i <= s.b; i++ {
		v, err := s.gk.Query(float64(i) / float64(s.b))
		if err != nil {
			return nil, err
		}
		edges = append(edges, v)
	}
	// Build buckets between consecutive distinct edges. A repeated edge
	// value is a heavy hitter (it spans several quantiles) and gets a
	// degenerate singleton bucket carrying the repeated depth, the
	// compressed-histogram treatment of Poosala & Ioannidis.
	buckets := make([]VBucket, 0, s.b+1)
	depth := float64(n) / float64(s.b)
	lo := edges[0]
	i := 1
	for i <= s.b {
		e := edges[i]
		j := i
		// GK returns duplicated edges verbatim for heavy values, so a
		// merged run's edges compare exactly equal.
		for j < s.b && edges[j+1] == e {
			j++
		}
		k := j - i + 1 // quantile units ending at this edge value
		switch {
		case e > lo && k == 1:
			buckets = append(buckets, VBucket{Lo: lo, Hi: e, Count: depth})
		case e > lo:
			// One unit spreads across (lo, e); the rest concentrate at e.
			buckets = append(buckets, VBucket{Lo: lo, Hi: e, Count: depth})
			buckets = append(buckets, VBucket{Lo: e, Hi: e, Count: float64(k-1) * depth})
		default: // e == lo: pure heavy value at the low edge
			buckets = append(buckets, VBucket{Lo: e, Hi: e, Count: float64(k) * depth})
		}
		lo = e
		i = j + 1
	}
	return &VHistogram{buckets: buckets, total: float64(n)}, nil
}

// ExactSelectivity computes the true fraction of data values in [lo, hi],
// the reference for accuracy tests and experiments.
func ExactSelectivity(data []float64, lo, hi float64) float64 {
	if len(data) == 0 {
		return 0
	}
	c := 0
	for _, v := range data {
		if v >= lo && v <= hi {
			c++
		}
	}
	return float64(c) / float64(len(data))
}

// ExactEqualDepth builds the exact equi-depth histogram by sorting, the
// offline reference the streaming construction approximates.
func ExactEqualDepth(data []float64, b int) (*VHistogram, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("vhist: empty data")
	}
	if b <= 0 {
		return nil, fmt.Errorf("vhist: need at least one bucket, got %d", b)
	}
	sorted := make([]float64, len(data))
	copy(sorted, data)
	sort.Float64s(sorted)
	if b > len(sorted) {
		b = len(sorted)
	}
	buckets := make([]VBucket, 0, b)
	lo := sorted[0]
	prevIdx := 0
	for i := 1; i <= b; i++ {
		idx := i * len(sorted) / b
		hi := sorted[idx-1]
		buckets = append(buckets, VBucket{Lo: lo, Hi: hi, Count: float64(idx - prevIdx)})
		lo = hi
		prevIdx = idx
	}
	return &VHistogram{buckets: buckets, total: float64(len(sorted))}, nil
}
