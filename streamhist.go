package streamhist

import (
	"streamhist/internal/agglom"
	"streamhist/internal/core"
	"streamhist/internal/histogram"
	"streamhist/internal/vopt"
)

// Bucket is a single histogram bucket: positions [Start, End] (inclusive)
// represented by Value.
type Bucket = histogram.Bucket

// Histogram is an ordered sequence of adjacent buckets. It answers point,
// range-sum and range-average queries and can reconstruct the approximated
// sequence; see the methods on the type.
type Histogram = histogram.Histogram

// FixedWindow incrementally maintains an epsilon-approximate B-bucket
// V-optimal histogram over the most recent n stream points — Algorithm
// FixedWindowHistogram, the paper's primary contribution. Push consumes
// points; Histogram and ApproxError query the current window. By default
// every maintenance pass rebuilds the interval queues exactly, with
// warm-started, memoized CreateList searches whose output is
// bit-identical to the paper's cold search; WithIncrementalRebuild
// switches to the approximation-bound incremental cover-repair engine
// that amortizes the per-push full rebuild away.
type FixedWindow = core.FixedWindow

// FixedWindowResult is the histogram extracted from a FixedWindow together
// with its exact SSE over the window.
type FixedWindowResult = core.Result

// Agglomerative incrementally maintains an epsilon-approximate B-bucket
// V-optimal histogram of everything seen since the start of the stream —
// Algorithm AgglomerativeHistogram — in small space: it never stores the
// stream, only O((B^2/eps) log n) interval endpoints.
type Agglomerative = agglom.Summary

// AgglomerativeResult is the histogram extracted from an Agglomerative
// summary together with its exact SSE.
type AgglomerativeResult = agglom.Result

// OptimalResult is an exactly optimal histogram with its SSE.
type OptimalResult = vopt.Result

// TimeWindow maintains an approximate histogram over the points of the
// last span of stream time (the paper's "latest T seconds" framing):
// points carry timestamps and expire by age rather than by count.
type TimeWindow = core.TimeWindow

// NewAgglomerative creates a whole-stream summary with b buckets and
// precision eps.
func NewAgglomerative(b int, eps float64) (*Agglomerative, error) {
	return agglom.New(b, eps)
}

// Optimal computes the exactly optimal b-bucket V-optimal histogram of a
// finite sequence using the O(n^2 b) dynamic program of Jagadish et al.
// (VLDB 1998). It is the reference the approximation algorithms are
// measured against, and is practical for sequences up to a few tens of
// thousands of points.
func Optimal(data []float64, b int) (*OptimalResult, error) {
	return vopt.Build(data, b)
}

// OptimalError computes only the optimal b-bucket SSE in O(n) space.
func OptimalError(data []float64, b int) (float64, error) {
	return vopt.Error(data, b)
}

// MinBuckets solves the dual sizing problem: the smallest bucket count
// whose optimal histogram has SSE at most maxSSE.
func MinBuckets(data []float64, maxSSE float64) (int, error) {
	return vopt.MinBuckets(data, maxSSE)
}

// Approximate computes an eps-approximate b-bucket histogram of a finite
// sequence in a single pass (Problem 2 of the paper): its SSE is within a
// (1+eps) factor of optimal, at cost O((n b^2 / eps) log n).
func Approximate(data []float64, b int, eps float64) (*AgglomerativeResult, error) {
	return agglom.Build(data, b, eps)
}
