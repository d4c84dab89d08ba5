// Package errs defines the sentinel validation errors shared by the
// constructor surface of the histogram packages (core, agglom, vopt,
// prefix). Constructors wrap these with fmt.Errorf("...: %w ...", ...) so
// callers branch with errors.Is instead of matching message text; the
// root streamhist package re-exports them.
package errs

import "errors"

var (
	// ErrBadBuckets reports a bucket budget below 1.
	ErrBadBuckets = errors.New("bucket budget must be at least 1")
	// ErrBadEpsilon reports an approximation precision that is not a
	// finite positive number.
	ErrBadEpsilon = errors.New("precision must be finite and positive")
	// ErrBadDelta reports a per-level growth factor that is not a finite
	// positive number.
	ErrBadDelta = errors.New("growth factor must be finite and positive")
	// ErrBadWindow reports a non-positive window capacity.
	ErrBadWindow = errors.New("window capacity must be positive")
	// ErrBadSpan reports a non-positive time-window span.
	ErrBadSpan = errors.New("window span must be positive")
	// ErrEmptyData reports an operation over an empty sequence.
	ErrEmptyData = errors.New("empty data")
)
