package streamhist

import (
	"fmt"
	"sync"
	"time"

	"streamhist/internal/core"
)

// Option configures NewFixedWindow. The zero configuration (no options)
// is a plain fixed-window maintainer with the worst-case growth factor
// eps/(2B), no locking and no instrumentation.
type Option func(*config)

type config struct {
	delta      float64
	span       time.Duration
	concurrent bool
	metrics    *Metrics
	tracer     *Tracer
	incr       bool
}

// WithDelta sets an explicit per-level growth factor instead of the
// default eps/(2B). Larger delta trades accuracy for speed — the graceful
// tradeoff the paper advertises; the paper's worked Example 1 uses
// delta = eps directly.
func WithDelta(delta float64) Option {
	return func(c *config) { c.delta = delta }
}

// WithSpan turns the maintainer into a time-based window over the last
// span of stream time (the paper's "latest T seconds" framing): points
// carry timestamps and expire by age rather than by count, and the
// capacity n bounds how many points may be buffered at once. Push stamps
// points with the wall clock; PushAt supplies explicit timestamps.
func WithSpan(span time.Duration) Option {
	return func(c *config) { c.span = span }
}

// WithIncrementalRebuild toggles the incremental cover-repair engine
// (default off): per-point maintenance re-validates and repairs the
// previous interval queues against their HERROR bounds instead of
// rebuilding them, falling back to the exact rebuild on a repair-budget
// overrun and at least every K = 1/(2*delta) passes. The maintained
// cover is approximation-bound rather than bit-identical: ApproxError
// stays within the staleness budget of the exact engine's (see
// DESIGN.md section 11) while amortized push cost drops by an order of
// magnitude.
func WithIncrementalRebuild(on bool) Option {
	return func(c *config) { c.incr = on }
}

// WithConcurrency makes every method of the returned maintainer safe for
// concurrent use, serialized by an internal mutex (the per-point
// maintenance cost dominates, so finer-grained locking buys nothing).
// Histogram then returns a private copy that stays valid across later
// pushes.
func WithConcurrency() Option {
	return func(c *config) { c.concurrent = true }
}

// WithMetrics attaches the maintainer's hot-path instrumentation (push
// latency quantiles, rebuild and CreateList counters, lazy-maintenance
// flush sizes) to reg. A nil registry is the same as omitting the option.
func WithMetrics(reg *Metrics) Option {
	return func(c *config) { c.metrics = reg }
}

// WithTracing attaches a flight recorder to the maintainer: every push
// and rebuild opens a span, and each rebuild level, probe-memo summary
// and warm-start summary lands in the ring as a timed event. A nil
// tracer is the same as omitting the option; recording is
// allocation-free either way.
func WithTracing(tr *Tracer) Option {
	return func(c *config) { c.tracer = tr }
}

// Maintainer is a stream histogram maintainer constructed by
// NewFixedWindow: an epsilon-approximate B-bucket V-optimal histogram
// over a sliding window, where the window is the last n points (default)
// or the last span of stream time (WithSpan). FixedWindow and TimeWindow
// expose the underlying maintainer for code that needs the full
// low-level surface.
type Maintainer struct {
	// mu serializes all access when WithConcurrency is set; otherwise it is
	// never locked and the maintainer is single-goroutine like FixedWindow.
	mu lockIf
	fw *core.FixedWindow // count-based window; nil when tw is set. Access serialized via mu when concurrent.
	tw *core.TimeWindow  // time-based window (WithSpan). Access serialized via mu when concurrent.
}

// lockIf is a mutex whose locking is skipped until enable is called, so
// the single-goroutine configuration pays only a branch per operation.
type lockIf struct {
	on bool
	mu sync.Mutex
}

func (l *lockIf) enable() { l.on = true }

// lock is an acquisition wrapper: like sync.Mutex.Lock itself it returns
// holding the mutex on purpose, and lockIf.unlock is its paired release.
//
//lint:ignore unlockpath lock() is the acquire half of a Lock/Unlock wrapper pair; callers release via unlock()
func (l *lockIf) lock() {
	if l.on {
		l.mu.Lock()
	}
}

func (l *lockIf) unlock() {
	if l.on {
		l.mu.Unlock()
	}
}

func (l *lockIf) enabled() bool { return l.on }

// NewFixedWindow creates a maintainer over windows of capacity n with b
// buckets and precision eps: the SSE of the maintained histogram is
// within a (1+eps) factor of the optimal b-bucket SSE of the window.
// Per-point maintenance costs O((b^3/eps^2) log^3 n). Options select the
// growth factor (WithDelta), a time-based window (WithSpan), locking
// (WithConcurrency), instrumentation (WithMetrics, WithTracing) and the
// incremental cover-repair engine (WithIncrementalRebuild).
func NewFixedWindow(n, b int, eps float64, opts ...Option) (*Maintainer, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	m := &Maintainer{}
	if cfg.concurrent {
		m.mu.enable()
	}
	switch {
	case cfg.span != 0: // non-positive spans are rejected by the constructor
		delta := cfg.delta
		if delta == 0 {
			// Mirror the defaulting (and its validation order) of core.New.
			if eps <= 0 {
				return nil, fmt.Errorf("streamhist: %w, got %g", ErrBadEpsilon, eps)
			}
			if b > 0 {
				delta = eps / (2 * float64(b))
			} else {
				delta = eps // invalid b; the constructor rejects it below
			}
		}
		tw, err := core.NewTimeWindow(n, b, eps, delta, cfg.span)
		if err != nil {
			return nil, err
		}
		tw.SetRegistry(cfg.metrics)
		tw.SetTracer(cfg.tracer)
		m.tw = tw
	case cfg.delta != 0:
		fw, err := core.NewWithDelta(n, b, eps, cfg.delta)
		if err != nil {
			return nil, err
		}
		fw.SetRegistry(cfg.metrics)
		fw.SetTracer(cfg.tracer)
		m.fw = fw
	default:
		fw, err := core.New(n, b, eps)
		if err != nil {
			return nil, err
		}
		fw.SetRegistry(cfg.metrics)
		fw.SetTracer(cfg.tracer)
		m.fw = fw
	}
	if m.tw != nil {
		m.tw.SetIncrementalRebuild(cfg.incr)
	} else {
		m.fw.SetIncrementalRebuild(cfg.incr)
	}
	return m, nil
}

// FixedWindow returns the underlying count-based maintainer, or nil for a
// time-based one (WithSpan). Mutating it directly is not serialized by
// WithConcurrency.
func (m *Maintainer) FixedWindow() *core.FixedWindow { return m.fw }

// TimeWindow returns the underlying time-based maintainer, or nil for a
// count-based one.
func (m *Maintainer) TimeWindow() *core.TimeWindow { return m.tw }

// Push consumes the next stream point with full per-point maintenance.
// On a time-based maintainer the point is stamped with the wall clock
// (use PushAt for explicit timestamps).
func (m *Maintainer) Push(v float64) {
	if m.tw != nil {
		// The wall clock is monotonic within a process, so ordering cannot
		// be violated here.
		_ = m.PushAt(time.Now(), v)
		return
	}
	m.mu.lock()
	m.fw.Push(v)
	m.mu.unlock()
}

// PushAt consumes a point carrying an explicit timestamp. On a time-based
// maintainer timestamps must be non-decreasing; out-of-order arrivals are
// rejected. On a count-based maintainer the timestamp is ignored.
func (m *Maintainer) PushAt(ts time.Time, v float64) error {
	m.mu.lock()
	defer m.mu.unlock()
	if m.tw != nil {
		return m.tw.Push(ts, v)
	}
	m.fw.Push(v)
	return nil
}

// PushLazy consumes a point, deferring histogram maintenance to the next
// query — the amortization the paper's lazy-maintenance discussion
// describes. Time-based maintainers expire by age on every arrival and do
// not defer.
func (m *Maintainer) PushLazy(v float64) {
	if m.tw != nil {
		m.Push(v)
		return
	}
	m.mu.lock()
	m.fw.PushLazy(v)
	m.mu.unlock()
}

// PushBatch consumes a batch of points with a single maintenance pass —
// on both window kinds. A time-based maintainer stamps the whole batch
// with the wall clock and expires by age once, instead of re-entering
// per-element maintenance for each value.
func (m *Maintainer) PushBatch(vs []float64) {
	if m.tw != nil {
		now := time.Now()
		m.mu.lock()
		// The wall clock is monotonic in-process, so ordering holds.
		_ = m.tw.PushBatch(now, vs)
		m.mu.unlock()
		return
	}
	m.mu.lock()
	m.fw.PushBatch(vs)
	m.mu.unlock()
}

// Histogram extracts the histogram of the current window together with
// its exact SSE. Without WithConcurrency the result aliases maintainer
// state and is valid until the next push; with it, the result is a
// private copy.
func (m *Maintainer) Histogram() (*FixedWindowResult, error) {
	m.mu.lock()
	defer m.mu.unlock()
	var res *FixedWindowResult
	var err error
	if m.tw != nil {
		res, err = m.tw.Histogram()
	} else {
		res, err = m.fw.Histogram()
	}
	if err != nil {
		return nil, err
	}
	if m.mu.enabled() {
		return &FixedWindowResult{Histogram: res.Histogram.Clone(), SSE: res.SSE}, nil
	}
	return res, nil
}

// ApproxError returns the current approximate B-bucket error (the HERROR
// of the top level).
func (m *Maintainer) ApproxError() float64 {
	m.mu.lock()
	defer m.mu.unlock()
	if m.tw != nil {
		return m.tw.ApproxError()
	}
	return m.fw.ApproxError()
}

// Len returns the number of points currently inside the window.
func (m *Maintainer) Len() int {
	m.mu.lock()
	defer m.mu.unlock()
	if m.tw != nil {
		return m.tw.Len()
	}
	return m.fw.Len()
}

// Seen returns the total number of points pushed.
func (m *Maintainer) Seen() int64 {
	m.mu.lock()
	defer m.mu.unlock()
	if m.tw != nil {
		return m.tw.Seen()
	}
	return m.fw.Seen()
}

// Window returns a copy of the current window contents, oldest first.
func (m *Maintainer) Window() []float64 {
	m.mu.lock()
	defer m.mu.unlock()
	if m.tw != nil {
		return m.tw.Window()
	}
	return m.fw.Window()
}

// WindowStart returns the stream position of the oldest in-window point.
func (m *Maintainer) WindowStart() int64 {
	m.mu.lock()
	defer m.mu.unlock()
	if m.tw != nil {
		return m.tw.WindowStart()
	}
	return m.fw.WindowStart()
}

// Span returns the temporal extent of a time-based maintainer, or 0 for a
// count-based one.
func (m *Maintainer) Span() time.Duration {
	if m.tw != nil {
		return m.tw.Span()
	}
	return 0
}

// Capacity returns the window capacity n given at construction.
func (m *Maintainer) Capacity() int {
	if m.tw != nil {
		return m.tw.Capacity()
	}
	return m.fw.Capacity()
}

// Buckets returns the bucket budget B.
func (m *Maintainer) Buckets() int {
	if m.tw != nil {
		return m.tw.Buckets()
	}
	return m.fw.Buckets()
}

// Epsilon returns the configured precision.
func (m *Maintainer) Epsilon() float64 {
	if m.tw != nil {
		return m.tw.Epsilon()
	}
	return m.fw.Epsilon()
}

// Delta returns the per-level growth factor in effect (the configured
// WithDelta value, or the default eps/(2B)).
func (m *Maintainer) Delta() float64 {
	if m.tw != nil {
		return m.tw.Delta()
	}
	return m.fw.Delta()
}
