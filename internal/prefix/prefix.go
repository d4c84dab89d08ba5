// Package prefix implements the prefix-sum stores used by every histogram
// construction algorithm in this library. Maintaining SUM[1..i] and
// SQSUM[1..i] (equation 3 of Guha & Koudas, ICDE 2002) lets SQERROR[i,j] —
// the SSE of collapsing positions i..j into their mean — be evaluated in
// O(1):
//
//	SQERROR[i,j] = SQSUM[j] - SQSUM[i-1] - (SUM[j]-SUM[i-1])^2 / (j-i+1)
//
// Two variants are provided: Sums for a static, fully materialized sequence
// (the classic and agglomerative settings) and SlidingSums for the fixed
// window of section 4.5, which keeps SUM' and SQSUM' over a cyclic buffer
// and rebases them every n arrivals so the stored magnitudes stay bounded.
package prefix

// Sums stores prefix sums and prefix sums of squares for a static sequence.
// Positions are 0-based; the zero value is unusable, construct with NewSums.
type Sums struct {
	sum []float64 // sum[i] = v[0] + ... + v[i-1]
	sq  []float64 // sq[i]  = v[0]^2 + ... + v[i-1]^2
}

// NewSums builds the prefix arrays for data in one pass.
func NewSums(data []float64) *Sums {
	s := &Sums{
		sum: make([]float64, len(data)+1),
		sq:  make([]float64, len(data)+1),
	}
	for i, v := range data {
		s.sum[i+1] = s.sum[i] + v
		s.sq[i+1] = s.sq[i] + v*v
	}
	return s
}

// Len returns the number of positions covered.
func (s *Sums) Len() int { return len(s.sum) - 1 }

// Append extends the store with one more value and returns the new length.
// It lets agglomerative algorithms grow the store as the stream advances.
func (s *Sums) Append(v float64) int {
	n := len(s.sum)
	s.sum = append(s.sum, s.sum[n-1]+v)
	s.sq = append(s.sq, s.sq[n-1]+v*v)
	s.checkInvariants()
	return n
}

// RangeSum returns sum(v[lo..hi]), inclusive 0-based positions.
func (s *Sums) RangeSum(lo, hi int) float64 {
	if hi < lo {
		return 0
	}
	return s.sum[hi+1] - s.sum[lo]
}

// RangeSq returns sum(v[lo..hi]^2), inclusive 0-based positions.
func (s *Sums) RangeSq(lo, hi int) float64 {
	if hi < lo {
		return 0
	}
	return s.sq[hi+1] - s.sq[lo]
}

// Mean returns the mean of v[lo..hi].
func (s *Sums) Mean(lo, hi int) float64 {
	if hi < lo {
		return 0
	}
	return s.RangeSum(lo, hi) / float64(hi-lo+1)
}

// SQError returns SQERROR[lo,hi]: the SSE of representing v[lo..hi] by its
// mean. Floating-point cancellation on near-constant ranges is clamped to
// zero so callers can rely on non-negativity.
func (s *Sums) SQError(lo, hi int) float64 {
	if hi <= lo {
		return 0
	}
	n := float64(hi - lo + 1)
	sum := s.RangeSum(lo, hi)
	e := s.RangeSq(lo, hi) - sum*sum/n
	if e < 0 {
		e = 0
	}
	return e
}
