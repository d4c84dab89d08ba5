// Package segment implements the two classical time-series segmentation
// heuristics that bracket APCA in the literature the paper's similarity
// experiments build on: bottom-up merging (start from singletons, greedily
// merge the cheapest adjacent pair) and top-down splitting (recursively
// split at the boundary reducing SSE the most). Both produce B-segment
// piecewise-constant approximations in histogram form, usable anywhere a
// similarity Builder is expected, and both are measured against the
// optimal V-optimal construction in the tests.
package segment

import (
	"container/heap"
	"fmt"
	"math"

	"streamhist/internal/histogram"
	"streamhist/internal/prefix"
)

// BottomUp merges from singleton segments until only b remain, always
// merging the adjacent pair whose merge increases SSE the least. With a
// pairing heap over merge costs the construction is O(n log n).
func BottomUp(data []float64, b int) (*histogram.Histogram, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("segment: empty data")
	}
	if b <= 0 {
		return nil, fmt.Errorf("segment: need at least one segment, got %d", b)
	}
	n := len(data)
	if b >= n {
		boundaries := make([]int, n)
		for i := range boundaries {
			boundaries[i] = i
		}
		return histogram.New(data, boundaries)
	}
	sums := prefix.NewSums(data)

	// Doubly linked segments with a heap of candidate merges. Stale heap
	// entries are skipped via version counters.
	type seg struct {
		start, end int
		prev, next int // indices into segs, -1 at the ends
		version    int
		alive      bool
	}
	segs := make([]seg, n)
	for i := range segs {
		segs[i] = seg{start: i, end: i, prev: i - 1, next: i + 1, alive: true}
	}
	segs[n-1].next = -1

	h := &candHeap{}
	mergeCost := func(l, r int) float64 {
		return sums.SQError(segs[l].start, segs[r].end) -
			sums.SQError(segs[l].start, segs[l].end) -
			sums.SQError(segs[r].start, segs[r].end)
	}
	for i := 0; i+1 < n; i++ {
		heap.Push(h, cand{left: i, rightIdx: i + 1, cost: mergeCost(i, i+1)})
	}
	remaining := n
	for remaining > b && h.Len() > 0 {
		c := heap.Pop(h).(cand)
		l, r := c.left, c.rightIdx
		if !segs[l].alive || !segs[r].alive ||
			segs[l].version != c.lVer || segs[r].version != c.rVer ||
			segs[l].next != r {
			continue // stale entry
		}
		// Merge r into l.
		segs[l].end = segs[r].end
		segs[l].version++
		segs[l].next = segs[r].next
		if segs[r].next >= 0 {
			segs[segs[r].next].prev = l
		}
		segs[r].alive = false
		remaining--
		if p := segs[l].prev; p >= 0 {
			heap.Push(h, cand{left: p, rightIdx: l, cost: mergeCost(p, l),
				lVer: segs[p].version, rVer: segs[l].version})
		}
		if nx := segs[l].next; nx >= 0 {
			heap.Push(h, cand{left: l, rightIdx: nx, cost: mergeCost(l, nx),
				lVer: segs[l].version, rVer: segs[nx].version})
		}
	}
	boundaries := make([]int, 0, b)
	for i := 0; i >= 0; i = segs[i].next {
		boundaries = append(boundaries, segs[i].end)
	}
	return histogram.New(data, boundaries)
}

// cand is a candidate merge of the pair (left, rightIdx) with version
// stamps used to detect staleness after either side has been merged.
type cand struct {
	left     int
	cost     float64
	lVer     int
	rVer     int
	rightIdx int
}

type candHeap []cand

func (h candHeap) Len() int           { return len(h) }
func (h candHeap) Less(a, b int) bool { return h[a].cost < h[b].cost }
func (h candHeap) Swap(a, b int)      { h[a], h[b] = h[b], h[a] }
func (h *candHeap) Push(x any)        { *h = append(*h, x.(cand)) }
func (h *candHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TopDown recursively splits the segment whose best single split reduces
// SSE the most, until b segments exist.
func TopDown(data []float64, b int) (*histogram.Histogram, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("segment: empty data")
	}
	if b <= 0 {
		return nil, fmt.Errorf("segment: need at least one segment, got %d", b)
	}
	n := len(data)
	if b > n {
		b = n
	}
	sums := prefix.NewSums(data)

	type piece struct {
		start, end int
		bestSplit  int
		gain       float64
	}
	evalBest := func(p *piece) {
		p.bestSplit = -1
		p.gain = 0
		whole := sums.SQError(p.start, p.end)
		for s := p.start; s < p.end; s++ {
			g := whole - sums.SQError(p.start, s) - sums.SQError(s+1, p.end)
			if g > p.gain {
				p.gain = g
				p.bestSplit = s
			}
		}
	}
	root := piece{start: 0, end: n - 1}
	evalBest(&root)
	pieces := []piece{root}
	for len(pieces) < b {
		bestIdx := -1
		bestGain := 0.0
		for i := range pieces {
			if pieces[i].bestSplit >= 0 && pieces[i].gain > bestGain {
				bestGain = pieces[i].gain
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break // all pieces homogeneous
		}
		p := pieces[bestIdx]
		left := piece{start: p.start, end: p.bestSplit}
		right := piece{start: p.bestSplit + 1, end: p.end}
		evalBest(&left)
		evalBest(&right)
		pieces[bestIdx] = left
		pieces = append(pieces, right)
	}
	boundaries := make([]int, 0, len(pieces))
	for _, p := range pieces {
		boundaries = append(boundaries, p.end)
	}
	sortInts(boundaries)
	return histogram.New(data, boundaries)
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// SSEOf is a convenience returning a construction's SSE on its own data.
func SSEOf(h *histogram.Histogram, data []float64) float64 {
	if h == nil {
		return math.Inf(1)
	}
	return h.SSE(data)
}
