package core

import (
	"fmt"
	"time"

	"streamhist/internal/errs"
)

// TimeWindow maintains an approximate histogram over the points of the
// last Span of stream time — the "latest T seconds of data produced"
// framing of the paper's introduction. Points carry timestamps; arrivals
// evict everything older than Span before the per-point maintenance runs.
// The number of buffered points varies with the arrival rate, bounded by
// the capacity given at construction.
type TimeWindow struct {
	fw     *FixedWindow
	span   time.Duration
	stamps []int64 // ring of unix-nano timestamps, parallel to the window
	head   int
	size   int
	last   int64
}

// NewTimeWindow creates a time-based maintainer: up to maxPoints buffered
// points covering the trailing span, with b buckets and growth factor
// delta.
func NewTimeWindow(maxPoints, b int, eps, delta float64, span time.Duration) (*TimeWindow, error) {
	if span <= 0 {
		return nil, fmt.Errorf("core: %w, got %v", errs.ErrBadSpan, span)
	}
	fw, err := NewWithDelta(maxPoints, b, eps, delta)
	if err != nil {
		return nil, err
	}
	return &TimeWindow{
		fw:     fw,
		span:   span,
		stamps: make([]int64, maxPoints),
	}, nil
}

// Span returns the configured temporal extent.
func (tw *TimeWindow) Span() time.Duration { return tw.span }

// Seen returns the total number of points pushed since construction.
func (tw *TimeWindow) Seen() int64 { return tw.fw.Seen() }

// Capacity returns the maximum number of buffered points.
func (tw *TimeWindow) Capacity() int { return tw.fw.Capacity() }

// Buckets returns the bucket budget B.
func (tw *TimeWindow) Buckets() int { return tw.fw.Buckets() }

// Epsilon returns the configured precision.
func (tw *TimeWindow) Epsilon() float64 { return tw.fw.Epsilon() }

// Delta returns the per-level growth factor.
func (tw *TimeWindow) Delta() float64 { return tw.fw.Delta() }

// WindowStart returns the stream position of the oldest in-window point.
func (tw *TimeWindow) WindowStart() int64 { return tw.fw.WindowStart() }

// SetIncrementalRebuild toggles incremental cover repair on the
// underlying maintainer (see FixedWindow.SetIncrementalRebuild). Age
// evictions are window slides like any other, so the incremental pass
// covers them too.
func (tw *TimeWindow) SetIncrementalRebuild(on bool) { tw.fw.SetIncrementalRebuild(on) }

// Len returns the number of points currently inside the window.
func (tw *TimeWindow) Len() int { return tw.size }

// Push consumes a timestamped point. Timestamps must be non-decreasing;
// out-of-order arrivals are rejected. Points older than span relative to
// the new timestamp are evicted, then the histogram queues are rebuilt.
func (tw *TimeWindow) Push(ts time.Time, v float64) error {
	nano, err := tw.admit(ts)
	if err != nil {
		return err
	}
	tw.append(nano, v)
	tw.fw.pending++
	tw.fw.maintain()
	return nil
}

// PushBatch consumes a batch of points sharing one timestamp with a
// single maintenance pass at the end — the batched-arrivals model, and
// the fix for the per-element rebuild a loop of Push pays. Age evictions
// happen once against ts; the final window, and therefore the rebuilt
// state, is identical to pushing the values one by one.
func (tw *TimeWindow) PushBatch(ts time.Time, vs []float64) error {
	if len(vs) == 0 {
		return nil
	}
	nano, err := tw.admit(ts)
	if err != nil {
		return err
	}
	for _, v := range vs {
		tw.append(nano, v)
	}
	tw.fw.pending += int64(len(vs))
	tw.fw.maintain()
	return nil
}

// admit validates ts against the ordering contract and expires points
// older than span, returning the admitted unix-nano stamp.
func (tw *TimeWindow) admit(ts time.Time) (int64, error) {
	nano := ts.UnixNano()
	if tw.size > 0 && nano < tw.last {
		return 0, fmt.Errorf("core: out-of-order timestamp %v (last %v)", ts, time.Unix(0, tw.last))
	}
	tw.last = nano
	cutoff := nano - tw.span.Nanoseconds()
	// Expire old points strictly outside the span.
	for tw.size > 0 && tw.stamps[tw.head] <= cutoff {
		tw.fw.sums.EvictOldest()
		tw.head = (tw.head + 1) % len(tw.stamps)
		tw.size--
	}
	return nano, nil
}

// append adds one stamped point, dropping the oldest under capacity
// pressure — exactly what a standalone Push does after its evictions.
func (tw *TimeWindow) append(nano int64, v float64) {
	if tw.size == len(tw.stamps) {
		tw.fw.sums.EvictOldest()
		tw.head = (tw.head + 1) % len(tw.stamps)
		tw.size--
	}
	tw.stamps[(tw.head+tw.size)%len(tw.stamps)] = nano
	tw.size++
	tw.fw.sums.Push(v)
}

// Histogram extracts the current histogram over the in-window points
// (position 0 = oldest surviving point).
func (tw *TimeWindow) Histogram() (*Result, error) {
	if tw.size == 0 {
		return nil, fmt.Errorf("core: empty time window")
	}
	return tw.fw.Histogram()
}

// ApproxError returns the approximate B-bucket error over the window.
func (tw *TimeWindow) ApproxError() float64 { return tw.fw.ApproxError() }

// Window returns a copy of the buffered values, oldest first.
func (tw *TimeWindow) Window() []float64 { return tw.fw.Window() }

// OldestTimestamp returns the timestamp of the oldest in-window point.
func (tw *TimeWindow) OldestTimestamp() (time.Time, bool) {
	if tw.size == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, tw.stamps[tw.head]), true
}
