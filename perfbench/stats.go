package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples: the smallest sample with at least p% of the samples at or
// below it. It sorts samples in place; an empty slice yields 0.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1]
}

// median is percentile 50 on a copy of samples.
func median(samples []float64) float64 {
	return percentile(append([]float64(nil), samples...), 50)
}

// mean returns the arithmetic mean of samples, 0 when empty.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

// span is a closed time interval [Start, End] on one monotonic clock.
type span struct{ Start, End time.Duration }

// overlap returns how much of parent the children cover, counting time
// covered by several children once.
func overlap(parent span, children []span) time.Duration {
	clipped := make([]span, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	var covered time.Duration
	var cur span
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			if c.End > cur.End {
				cur.End = c.End
			}
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.End - cur.Start
	}
	return covered
}

// selfTime is a layer's self time: its span's duration minus the part
// of that interval its child spans cover.
func selfTime(parent span, children []span) time.Duration {
	return parent.End - parent.Start - overlap(parent, children)
}
