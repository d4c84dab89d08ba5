package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // 1..10, shuffled
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}, {51, 6},
	} {
		if got := percentile(append([]float64(nil), samples...), tc.p); got != tc.want {
			t.Errorf("p%v of 1..10 = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of no samples = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	// median must not reorder its argument.
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	parent := span{Start: 0, End: 10 * ms}
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 10 * ms},
		{"one child", []span{{2 * ms, 5 * ms}}, 7 * ms},
		{"overlapping children count once", []span{{2 * ms, 6 * ms}, {4 * ms, 8 * ms}}, 4 * ms},
		{"disjoint children", []span{{1 * ms, 2 * ms}, {5 * ms, 7 * ms}}, 7 * ms},
		{"children clipped to the parent", []span{{-5 * ms, 1 * ms}, {9 * ms, 20 * ms}}, 8 * ms},
		{"child outside the parent", []span{{11 * ms, 12 * ms}}, 10 * ms},
		{"nested children", []span{{1 * ms, 9 * ms}, {2 * ms, 3 * ms}}, 2 * ms},
		{"child covering the parent", []span{{-1 * ms, 11 * ms}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRangeEstimate(t *testing.T) {
	buckets := []bucketJSON{{0, 3, 2}, {4, 5, 10}, {6, 9, 1}}
	for _, tc := range []struct {
		lo, hi int
		want   float64
	}{
		{0, 9, 4*2 + 2*10 + 4*1},
		{3, 4, 2 + 10},
		{5, 5, 10},
		{8, 20, 2},
	} {
		if got := rangeEstimate(buckets, tc.lo, tc.hi); got != tc.want {
			t.Errorf("[%d,%d]: %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestSSECheck(t *testing.T) {
	window := []float64{1, 1, 5, 5}
	h := histJSON{SSE: 0, Buckets: []bucketJSON{{0, 1, 1}, {2, 3, 5}}}
	if r, err := sseCheck(h, window, 2, 0.1, false); err != nil || r != 1 {
		t.Fatalf("exact histogram: ratio %v, err %v; want 1, nil", r, err)
	}
	one := histJSON{SSE: 16, Buckets: []bucketJSON{{0, 3, 3}}}
	if _, err := sseCheck(one, window, 1, 0.1, false); err != nil {
		t.Fatalf("optimal one-bucket histogram rejected: %v", err)
	}
	if _, err := sseCheck(one, window, 2, 0.1, false); err == nil {
		t.Fatal("one bucket against a 0-SSE optimum of two was accepted")
	}
	bad := histJSON{SSE: 1, Buckets: []bucketJSON{{0, 1, 1}, {2, 3, 5}}}
	if _, err := sseCheck(bad, window, 2, 0.1, false); err == nil {
		t.Fatal("a served sse that disagrees with the buckets was accepted")
	}
	gap := histJSON{Buckets: []bucketJSON{{0, 1, 1}}}
	if _, err := sseCheck(gap, window, 2, 0.1, false); err == nil {
		t.Fatal("buckets that do not tile the window were accepted")
	}
}
