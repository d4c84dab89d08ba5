// Package quantile implements one-pass quantile summaries over data
// streams: the Greenwald–Khanna summary (SIGMOD 2001), cited by the paper
// as the state of the art for streaming order statistics. It complements
// the histogram algorithms: histograms summarize a sequence by position,
// quantile summaries by value.
package quantile

import (
	"fmt"
	"math"
	"sort"
)

// gkTuple is one entry (v, g, delta) of the GK summary: v is a stored
// value, g the gap in minimum rank to the previous tuple, and delta the
// uncertainty in v's rank.
type gkTuple struct {
	v     float64
	g     int64
	delta int64
}

// GK is a Greenwald–Khanna epsilon-approximate quantile summary. After n
// inserts, Query(phi) returns a value whose rank is within eps*n of
// ceil(phi*n). Space is O((1/eps) log(eps*n)).
// The zero value is unusable; construct with NewGK.
type GK struct {
	eps     float64
	n       int64
	tuples  []gkTuple
	pending int64 // inserts since last compress
}

// NewGK creates a summary with rank precision eps in (0, 1).
func NewGK(eps float64) (*GK, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("quantile: eps must be in (0,1), got %g", eps)
	}
	return &GK{eps: eps}, nil
}

// N returns the number of values inserted.
func (s *GK) N() int64 { return s.n }

// Size returns the number of stored tuples — the summary's footprint.
func (s *GK) Size() int { return len(s.tuples) }

// Insert adds a value to the summary.
func (s *GK) Insert(v float64) {
	idx := sort.Search(len(s.tuples), func(i int) bool { return s.tuples[i].v >= v })
	var t gkTuple
	switch {
	case idx == 0 || idx == len(s.tuples):
		// New minimum or maximum: rank known exactly.
		t = gkTuple{v: v, g: 1, delta: 0}
	default:
		t = gkTuple{v: v, g: 1, delta: int64(math.Floor(2*s.eps*float64(s.n))) - 1}
		if t.delta < 0 {
			t.delta = 0
		}
	}
	s.tuples = append(s.tuples, gkTuple{})
	copy(s.tuples[idx+1:], s.tuples[idx:])
	s.tuples[idx] = t
	s.n++
	s.pending++
	if float64(s.pending) >= 1/(2*s.eps) {
		s.compress()
		s.pending = 0
	}
}

// compress merges adjacent tuples whose combined rank uncertainty stays
// within the 2*eps*n budget.
func (s *GK) compress() {
	if len(s.tuples) < 3 {
		return
	}
	budget := int64(math.Floor(2 * s.eps * float64(s.n)))
	out := s.tuples[:1] // always keep the minimum
	for i := 1; i < len(s.tuples)-1; i++ {
		t := s.tuples[i]
		next := &s.tuples[i+1]
		if t.g+next.g+next.delta <= budget {
			next.g += t.g
		} else {
			out = append(out, t)
		}
	}
	out = append(out, s.tuples[len(s.tuples)-1])
	s.tuples = out
}

// Query returns an eps-approximate phi-quantile (phi in [0,1]).
func (s *GK) Query(phi float64) (float64, error) {
	if s.n == 0 {
		return 0, fmt.Errorf("quantile: empty summary")
	}
	if phi < 0 {
		phi = 0
	}
	if phi > 1 {
		phi = 1
	}
	rank := int64(math.Ceil(phi * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	bound := rank + int64(math.Floor(s.eps*float64(s.n)))
	rmin := int64(0)
	for i, t := range s.tuples {
		rmin += t.g
		rmax := rmin + t.delta
		if rmax > bound {
			if i == 0 {
				return t.v, nil
			}
			return s.tuples[i-1].v, nil
		}
	}
	return s.tuples[len(s.tuples)-1].v, nil
}

// Quantiles evaluates several phi values at once.
func (s *GK) Quantiles(phis []float64) ([]float64, error) {
	out := make([]float64, len(phis))
	for i, phi := range phis {
		v, err := s.Query(phi)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// ExactQuantile computes the true phi-quantile of data by sorting a copy;
// the reference for accuracy experiments.
func ExactQuantile(data []float64, phi float64) float64 {
	if len(data) == 0 {
		return 0
	}
	cp := make([]float64, len(data))
	copy(cp, data)
	sort.Float64s(cp)
	rank := int(math.Ceil(phi * float64(len(cp))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(cp) {
		rank = len(cp)
	}
	return cp[rank-1]
}

// RankOf returns the (1-based) rank of v within data: the number of
// elements <= v. Used to verify GK's rank guarantee.
func RankOf(data []float64, v float64) int {
	r := 0
	for _, x := range data {
		if x <= v {
			r++
		}
	}
	return r
}
