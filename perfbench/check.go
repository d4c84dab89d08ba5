package main

import (
	"fmt"
	"math"

	"streamhist/internal/vopt"
)

// bucketJSON and histJSON are the wire form of GET .../histogram.
type bucketJSON struct {
	Start int     `json:"start"`
	End   int     `json:"end"`
	Value float64 `json:"value"`
}

type histJSON struct {
	WindowStart int64        `json:"windowStart"`
	SSE         float64      `json:"sse"`
	Buckets     []bucketJSON `json:"buckets"`
}

type ingestReply struct {
	Ingested int   `json:"ingested"`
	Seen     int64 `json:"seen"`
	Degraded bool  `json:"degraded"`
}

type queryReply struct {
	Lo       int     `json:"lo"`
	Hi       int     `json:"hi"`
	Estimate float64 `json:"estimate"`
}

type statsReply struct {
	Seen   int64 `json:"seen"`
	Window int   `json:"window"`
}

type agglomReply struct {
	Endpoints int `json:"endpoints"`
}

// rangeEstimate is the range-sum estimate a bucketization gives for
// window positions [lo, hi]: each bucket contributes its value times the
// positions of [lo, hi] it covers.
func rangeEstimate(buckets []bucketJSON, lo, hi int) float64 {
	sum := 0.0
	for _, b := range buckets {
		l, r := max(b.Start, lo), min(b.End, hi)
		if r >= l {
			sum += float64(r-l+1) * b.Value
		}
	}
	return sum
}

// sameFloat reports whether a and b agree to float rounding.
func sameFloat(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// bucketSSE is the squared error of a bucketization over window.
func bucketSSE(buckets []bucketJSON, window []float64) (float64, error) {
	sse, next := 0.0, 0
	for _, b := range buckets {
		if b.Start != next || b.End < b.Start || b.End >= len(window) {
			return 0, fmt.Errorf("buckets do not tile the window: %+v", b)
		}
		for _, x := range window[b.Start : b.End+1] {
			sse += (x - b.Value) * (x - b.Value)
		}
		next = b.End + 1
	}
	if next != len(window) {
		return 0, fmt.Errorf("buckets cover %d of %d positions", next, len(window))
	}
	return sse, nil
}

// sseCheck compares a served histogram with the optimal B-bucket
// histogram of the benchmark's own copy of the window. It returns
// SSE(served) / OPT and fails when the served SSE field disagrees with
// the buckets, or when the ratio exceeds the exact-engine bound
// (1+delta)^(2B) of DESIGN.md §11 — (1+delta)^(4B) for an incremental
// stream.
func sseCheck(h histJSON, window []float64, b int, delta float64, incremental bool) (float64, error) {
	sse, err := bucketSSE(h.Buckets, window)
	if err != nil {
		return 0, err
	}
	if math.Abs(sse-h.SSE) > 1e-6*math.Max(1, sse) {
		return 0, fmt.Errorf("served sse %g, buckets over the scripted window give %g", h.SSE, sse)
	}
	opt, err := vopt.Error(window, b)
	if err != nil {
		return 0, err
	}
	if opt == 0 {
		if sse == 0 {
			return 1, nil
		}
		return 0, fmt.Errorf("optimal SSE is 0 but served SSE is %g", sse)
	}
	ratio := sse / opt
	exp := 2 * b
	if incremental {
		exp = 4 * b
	}
	if bound := math.Pow(1+delta, float64(exp)); ratio > bound {
		return ratio, fmt.Errorf("SSE/OPT = %g exceeds (1+delta)^%d = %g", ratio, exp, bound)
	}
	return ratio, nil
}

// sampleStreams picks k of streams, spread evenly.
func sampleStreams(streams []int, k int) []int {
	if len(streams) <= k {
		return streams
	}
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, streams[i*len(streams)/k])
	}
	return out
}
