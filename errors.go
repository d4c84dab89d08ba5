package streamhist

import "streamhist/internal/errs"

// Sentinel validation errors returned (wrapped, with context) by the
// constructors of this package. Branch on them with errors.Is:
//
//	if _, err := streamhist.NewFixedWindow(0, 16, 0.1); errors.Is(err, streamhist.ErrBadWindow) {
//		// caller passed a non-positive window capacity
//	}
var (
	// ErrBadBuckets reports a bucket budget below 1.
	ErrBadBuckets = errs.ErrBadBuckets
	// ErrBadEpsilon reports an approximation precision that is not a
	// finite positive number.
	ErrBadEpsilon = errs.ErrBadEpsilon
	// ErrBadDelta reports a per-level growth factor that is not a finite
	// positive number.
	ErrBadDelta = errs.ErrBadDelta
	// ErrBadWindow reports a non-positive window capacity.
	ErrBadWindow = errs.ErrBadWindow
	// ErrBadSpan reports a non-positive time-window span.
	ErrBadSpan = errs.ErrBadSpan
	// ErrEmptyData reports an operation over an empty sequence.
	ErrEmptyData = errs.ErrEmptyData
)
