// Package vopt implements the optimal V-optimal histogram construction
// algorithm of Jagadish et al. (VLDB 1998), reproduced as Figure 2
// ("Algorithm OptimalHistogram") of Guha & Koudas (ICDE 2002). Given n data
// points and a bucket budget B it finds the B-bucket piecewise-constant
// approximation minimizing the sum squared error, in O(n^2 B) time using the
// dynamic program
//
//	HERROR[j,k] = min_i HERROR[i,k-1] + SQERROR[i+1,j]
//
// with SQERROR evaluated in O(1) from prefix sums. It is the exact baseline
// every approximation algorithm in this library is measured against.
package vopt

import (
	"fmt"

	"streamhist/internal/errs"
	"streamhist/internal/histogram"
	"streamhist/internal/prefix"
)

// Result bundles the optimal histogram and its SSE.
type Result struct {
	Histogram *histogram.Histogram
	SSE       float64
}

// Build computes the optimal B-bucket histogram of data.
func Build(data []float64, b int) (*Result, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("vopt: %w", errs.ErrEmptyData)
	}
	if b <= 0 {
		return nil, fmt.Errorf("vopt: %w, got %d", errs.ErrBadBuckets, b)
	}
	if b > len(data) {
		b = len(data)
	}
	sums := prefix.NewSums(data)
	n := len(data)

	// err[k][j]: optimal SSE for positions 0..j with k+1 buckets.
	// back[k][j]: last position of the second-to-last bucket (or -1 when
	// a single bucket covers everything).
	cur := make([]float64, n)
	prev := make([]float64, n)
	back := make([][]int32, b)
	for k := range back {
		back[k] = make([]int32, n)
	}
	for j := 0; j < n; j++ {
		prev[j] = sums.SQError(0, j)
		back[0][j] = -1
	}
	for k := 1; k < b; k++ {
		for j := 0; j < n; j++ {
			if j < k {
				// Fewer points than buckets: zero error, split anywhere.
				cur[j] = 0
				back[k][j] = int32(j - 1)
				continue
			}
			// Scan boundaries from right to left. SQERROR of the last
			// bucket only grows as the boundary moves left, so once it
			// alone reaches the best value no earlier boundary can win.
			best := prev[j-1]
			bestI := j - 1
			for i := j - 2; i >= k-1; i-- {
				se := sums.SQError(i+1, j)
				if se >= best {
					break
				}
				if e := prev[i] + se; e < best {
					best = e
					bestI = i
				}
			}
			cur[j] = best
			back[k][j] = int32(bestI)
		}
		assertHERRORMonotone(prev, cur, k)
		prev, cur = cur, prev
	}

	// Reconstruct boundaries by walking the backpointers.
	boundaries := make([]int, 0, b)
	j := n - 1
	for k := b - 1; k >= 0; k-- {
		boundaries = append(boundaries, j)
		j = int(back[k][j])
	}
	// Reverse into increasing order.
	for l, r := 0, len(boundaries)-1; l < r; l, r = l+1, r-1 {
		boundaries[l], boundaries[r] = boundaries[r], boundaries[l]
	}
	assertBoundariesSorted(boundaries, n)
	h, err := histogram.New(data, boundaries)
	if err != nil {
		return nil, fmt.Errorf("vopt: internal reconstruction error: %w", err)
	}
	return &Result{Histogram: h, SSE: prev[n-1]}, nil
}

// MinBuckets solves the dual problem: the smallest bucket count whose
// optimal histogram has SSE at most maxSSE, found by binary search over B
// (optimal SSE is non-increasing in B).
func MinBuckets(data []float64, maxSSE float64) (int, error) {
	if len(data) == 0 {
		return 0, fmt.Errorf("vopt: %w", errs.ErrEmptyData)
	}
	if maxSSE < 0 {
		return 0, fmt.Errorf("vopt: negative error budget %g", maxSSE)
	}
	lo, hi := 1, len(data)
	if e, err := Error(data, lo); err != nil {
		return 0, err
	} else if e <= maxSSE {
		return lo, nil
	}
	for lo < hi {
		mid := (lo + hi) / 2
		e, err := Error(data, mid)
		if err != nil {
			return 0, err
		}
		if e <= maxSSE {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// Error computes only HERROR[n-1, B], the optimal SSE, using O(n) space.
// It is used by guarantee tests at sizes where storing backpointers would
// be wasteful.
func Error(data []float64, b int) (float64, error) {
	if len(data) == 0 {
		return 0, fmt.Errorf("vopt: %w", errs.ErrEmptyData)
	}
	if b <= 0 {
		return 0, fmt.Errorf("vopt: %w, got %d", errs.ErrBadBuckets, b)
	}
	if b > len(data) {
		b = len(data)
	}
	sums := prefix.NewSums(data)
	n := len(data)
	prev := make([]float64, n)
	cur := make([]float64, n)
	for j := 0; j < n; j++ {
		prev[j] = sums.SQError(0, j)
	}
	for k := 1; k < b; k++ {
		for j := 0; j < n; j++ {
			if j < k {
				cur[j] = 0
				continue
			}
			best := prev[j-1]
			for i := j - 2; i >= k-1; i-- {
				se := sums.SQError(i+1, j)
				if se >= best {
					break
				}
				if e := prev[i] + se; e < best {
					best = e
				}
			}
			cur[j] = best
		}
		assertHERRORMonotone(prev, cur, k)
		prev, cur = cur, prev
	}
	return prev[n-1], nil
}
