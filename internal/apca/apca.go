// Package apca implements the Adaptive Piecewise Constant Approximation of
// Keogh, Chakrabarti, Mehrotra & Pazzani (SIGMOD 2001), the comparator in
// the paper's time-series similarity experiments (section 5.2). A series is
// summarized by B variable-length constant segments; the segmentation is
// seeded from the largest Haar wavelet coefficients and then reduced to
// exactly B segments by greedily merging the adjacent pair whose merge
// increases the SSE least, with segment values set to exact means — the
// construction the APCA paper describes.
package apca

import (
	"fmt"
	"math"

	"streamhist/internal/histogram"
	"streamhist/internal/prefix"
	"streamhist/internal/wavelet"
)

// Build computes a B-segment APCA of data, returned as a histogram (the
// two representations are structurally identical: adjacent constant
// segments with mean values).
func Build(data []float64, b int) (*histogram.Histogram, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("apca: empty data")
	}
	if b <= 0 {
		return nil, fmt.Errorf("apca: need at least one segment, got %d", b)
	}
	if b >= len(data) {
		boundaries := make([]int, len(data))
		for i := range data {
			boundaries[i] = i
		}
		return histogram.New(data, boundaries)
	}

	// Seed segmentation: reconstruct from the top-B Haar coefficients and
	// cut wherever the reconstruction changes value. Keeping B
	// coefficients yields at most ~3B segments.
	syn, err := wavelet.Build(data, b)
	if err != nil {
		return nil, fmt.Errorf("apca: %w", err)
	}
	rec := syn.Reconstruct()
	boundaries := make([]int, 0, 3*b+1)
	for i := 0; i < len(rec)-1; i++ {
		// Reconstruct's values are bit-identical within a segment.
		if rec[i] != rec[i+1] {
			boundaries = append(boundaries, i)
		}
	}
	boundaries = append(boundaries, len(data)-1)

	// Greedy merge down to exactly b segments, minimizing SSE increase.
	sums := prefix.NewSums(data)
	boundaries = mergeTo(sums, boundaries, b)
	return histogram.New(data, boundaries)
}

// mergeTo repeatedly removes the internal boundary whose removal increases
// the SSE least until at most b segments remain. Segment counts here are
// small (<= ~3b), so the O(S^2) loop is cheaper than heap bookkeeping.
func mergeTo(sums *prefix.Sums, boundaries []int, b int) []int {
	for len(boundaries) > b {
		bestIdx := -1
		bestCost := math.Inf(1)
		start := 0
		for i := 0; i < len(boundaries)-1; i++ {
			midEnd := boundaries[i]
			nextEnd := boundaries[i+1]
			// Cost of merging segments (start..midEnd) and (midEnd+1..nextEnd).
			merged := sums.SQError(start, nextEnd)
			split := sums.SQError(start, midEnd) + sums.SQError(midEnd+1, nextEnd)
			if cost := merged - split; cost < bestCost {
				bestCost = cost
				bestIdx = i
			}
			start = midEnd + 1
		}
		boundaries = append(boundaries[:bestIdx], boundaries[bestIdx+1:]...)
	}
	return boundaries
}
