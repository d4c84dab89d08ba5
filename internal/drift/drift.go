// Package drift detects distribution change on a stream by comparing
// histogram summaries of successive windows — the monitoring use the
// paper's introduction motivates (fault sequences, utilization shifts).
// Histograms are compared as piecewise-constant functions: the L2 and L1
// distances have closed forms over the union refinement of the two bucket
// boundary sets, so a comparison costs O(B1+B2) regardless of window size.
package drift

import (
	"fmt"
	"math"

	"streamhist/internal/histogram"
)

// L2 returns the L2 distance between the step functions of two histograms
// over their common span: sqrt(sum over refined segments of
// len * (v1-v2)^2). The histograms must cover identical spans.
func L2(a, b *histogram.Histogram) (float64, error) {
	return distance(a, b, func(d float64, n int) float64 { return d * d * float64(n) },
		math.Sqrt)
}

// L1 returns the L1 (area) distance between the step functions.
func L1(a, b *histogram.Histogram) (float64, error) {
	return distance(a, b, func(d float64, n int) float64 { return math.Abs(d) * float64(n) },
		func(x float64) float64 { return x })
}

func distance(a, b *histogram.Histogram, acc func(diff float64, n int) float64, fin func(float64) float64) (float64, error) {
	as, ae := a.Span()
	bs, be := b.Span()
	if as != bs || ae != be {
		return 0, fmt.Errorf("drift: span mismatch [%d,%d] vs [%d,%d]", as, ae, bs, be)
	}
	if ae < as {
		return 0, fmt.Errorf("drift: empty histograms")
	}
	ai, bi := 0, 0
	pos := as
	total := 0.0
	for pos <= ae {
		ab := a.Buckets[ai]
		bb := b.Buckets[bi]
		end := ab.End
		if bb.End < end {
			end = bb.End
		}
		total += acc(ab.Value-bb.Value, end-pos+1)
		pos = end + 1
		if ab.End < pos {
			ai++
		}
		if bb.End < pos {
			bi++
		}
	}
	return fin(total), nil
}

// NormalizedL2 scales L2 by sqrt(span length), yielding a per-point RMS
// difference that is comparable across window sizes.
func NormalizedL2(a, b *histogram.Histogram) (float64, error) {
	d, err := L2(a, b)
	if err != nil {
		return 0, err
	}
	s, e := a.Span()
	return d / math.Sqrt(float64(e-s+1)), nil
}

// Detector raises events when the summary of the current window drifts
// too far from a reference summary. The caller feeds it histograms (for
// example from a FixedWindow, shifted to span [0,n-1]); the detector
// normalizes for window size, so summaries of different B are comparable.
// The zero value is unusable; construct with NewDetector.
type Detector struct {
	threshold float64
	reference *histogram.Histogram
	alarms    int
	checks    int
}

// NewDetector creates a detector alarming when the normalized L2 distance
// to the reference exceeds threshold.
func NewDetector(threshold float64) (*Detector, error) {
	if threshold <= 0 {
		return nil, fmt.Errorf("drift: threshold must be positive, got %g", threshold)
	}
	return &Detector{threshold: threshold}, nil
}

// Reference returns the current reference histogram (nil before the first
// observation).
func (d *Detector) Reference() *histogram.Histogram { return d.reference }

// Checks returns how many comparisons have run; Alarms how many fired.
func (d *Detector) Checks() int { return d.checks }

// Alarms returns the number of drift events raised.
func (d *Detector) Alarms() int { return d.alarms }

// Observe compares h to the reference. The first observation installs the
// reference and reports no drift, as does a histogram whose span differs
// from the reference's (while a window fills, its span grows between
// observations): h becomes the new reference and no check is counted.
// On drift, the reference is replaced by h (so subsequent windows are
// compared against the new regime) and the drift distance is returned
// with drifted=true.
func (d *Detector) Observe(h *histogram.Histogram) (dist float64, drifted bool, err error) {
	if err := h.Validate(); err != nil {
		return 0, false, fmt.Errorf("drift: %w", err)
	}
	if d.reference == nil || !sameSpan(d.reference, h) {
		d.reference = h.Clone()
		return 0, false, nil
	}
	d.checks++
	dist, err = NormalizedL2(d.reference, h)
	if err != nil {
		return 0, false, err
	}
	if dist > d.threshold {
		d.alarms++
		d.reference = h.Clone()
		return dist, true, nil
	}
	return dist, false, nil
}

func sameSpan(a, b *histogram.Histogram) bool {
	as, ae := a.Span()
	bs, be := b.Span()
	return as == bs && ae == be
}
