// Package resilience provides the self-healing primitives streamhistd
// wires through its durability paths: a circuit breaker that converts a
// stream of failures into a bounded degraded mode with jittered
// exponential-backoff recovery probes, and a retry/backoff policy for
// loops that must keep attempting an operation without hammering a sick
// dependency.
//
// The package is stdlib-only and deliberately free of observability
// dependencies: callers observe state changes through the breaker's
// transition hook and export whatever counters or trace events they
// need. Both the clock and the randomness source are injectable so every
// state machine path is deterministic under test.
package resilience

import (
	"math/rand"
	"sync"
	"time"
)

// State is a circuit breaker state.
type State int32

// Breaker states. The zero value is Closed so a zero-configured breaker
// starts healthy.
const (
	// Closed: operations flow; consecutive failures are counted.
	Closed State = iota
	// Open: operations are refused until the backoff interval elapses.
	Open
	// HalfOpen: one probe is in flight; its outcome closes or re-opens.
	HalfOpen
)

// String returns the state's stable lower-case name.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half_open"
	}
	return "unknown"
}

// BreakerConfig tunes a Breaker. The zero value is usable: every field
// falls back to the package default.
type BreakerConfig struct {
	// Threshold is the number of consecutive failures that trips the
	// breaker from Closed to Open. Default 3.
	Threshold int
	// Backoff is the first Open interval; each consecutive re-open
	// doubles it. Default 100ms.
	Backoff time.Duration
	// MaxBackoff caps the doubling. Default 30s.
	MaxBackoff time.Duration
	// Jitter is the fraction of each interval randomized around its
	// nominal value: the effective interval is uniform in
	// [d*(1-Jitter/2), d*(1+Jitter/2)]. Default 0.2; negative disables.
	Jitter float64
	// Now is the clock; nil means time.Now. Injected by tests.
	Now func() time.Time
	// Rand yields values in [0,1) for jitter; nil means math/rand.
	// Injected by tests for determinism.
	Rand func() float64
	// OnTransition, when non-nil, is called after every state change,
	// outside the breaker's lock. Wire counters and trace events here.
	OnTransition func(from, to State)
}

// Breaker is a circuit breaker over one protected dependency. Methods
// are safe for concurrent use.
//
// Closed is the healthy state: Allow always grants and consecutive
// Failure calls count toward Threshold. Reaching it trips the breaker
// Open: Allow refuses until the (jittered, exponentially growing)
// backoff interval elapses, then grants exactly one caller a probe,
// moving to HalfOpen. A Success in HalfOpen closes the breaker and
// resets the backoff; a Failure re-opens it with a doubled interval.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State         // guarded by mu
	failures int           // guarded by mu; consecutive failures while Closed
	interval time.Duration // guarded by mu; current Open interval (pre-jitter)
	until    time.Time     // guarded by mu; when Open ends and a probe may run
	opens    int64         // guarded by mu; times the breaker entered Open
}

// NewBreaker builds a breaker from cfg, applying defaults for zero
// fields.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 3
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 30 * time.Second
	}
	if cfg.MaxBackoff < cfg.Backoff {
		cfg.MaxBackoff = cfg.Backoff
	}
	if cfg.Jitter == 0 {
		cfg.Jitter = 0.2
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Float64
	}
	return &Breaker{cfg: cfg, interval: cfg.Backoff}
}

// State returns the current state. Note that an Open breaker whose
// backoff has elapsed still reports Open until some caller's Allow
// claims the probe.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens returns how many times the breaker has entered Open.
func (b *Breaker) Opens() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// Allow reports whether a protected operation may proceed. Closed always
// grants. Open grants exactly one caller once the backoff interval has
// elapsed — that caller's operation is the probe, and the breaker moves
// to HalfOpen until Success or Failure settles it. HalfOpen refuses
// everyone else: only one probe is in flight at a time.
func (b *Breaker) Allow() bool {
	allowed, probing := func() (bool, bool) {
		b.mu.Lock()
		defer b.mu.Unlock()
		switch b.state {
		case Closed:
			return true, false
		case HalfOpen:
			return false, false
		}
		if b.cfg.Now().Before(b.until) {
			return false, false
		}
		b.state = HalfOpen
		return true, true
	}()
	if probing {
		b.notify(Open, HalfOpen)
	}
	return allowed
}

// NextProbeIn returns how long until an Open breaker grants a probe
// (0 when it would grant now, or when the breaker is not Open). Callers
// pacing a recovery loop sleep this long instead of polling Allow.
func (b *Breaker) NextProbeIn() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != Open {
		return 0
	}
	if d := b.until.Sub(b.cfg.Now()); d > 0 {
		return d
	}
	return 0
}

// Success records a successful protected operation: in HalfOpen it
// closes the breaker and resets the backoff; in Closed it clears the
// consecutive-failure count. In Open it is ignored (no probe was
// granted).
func (b *Breaker) Success() {
	b.mu.Lock()
	from := b.state
	b.failures = 0
	switch b.state {
	case HalfOpen:
		b.state = Closed
		b.interval = b.cfg.Backoff
	case Open:
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	if from == HalfOpen {
		b.notify(HalfOpen, Closed)
	}
}

// Failure records a failed protected operation. In Closed it counts
// toward Threshold and trips the breaker when reached; in HalfOpen the
// failed probe re-opens the breaker with a doubled interval. It returns
// true when this call moved the breaker to Open.
func (b *Breaker) Failure() bool {
	from, opened := func() (State, bool) {
		b.mu.Lock()
		defer b.mu.Unlock()
		switch b.state {
		case Closed:
			b.failures++
			if b.failures < b.cfg.Threshold {
				return Closed, false
			}
			b.open()
			return Closed, true
		case HalfOpen:
			b.interval = min(b.interval*2, b.cfg.MaxBackoff)
			b.open()
			return HalfOpen, true
		}
		// Already Open: nothing was allowed, nothing to record.
		return Open, false
	}()
	if opened {
		b.notify(from, Open)
	}
	return opened
}

// Trip forces the breaker Open regardless of the failure count — the
// escalation path for watchdogs that detect sickness out of band. A
// breaker that is already Open stays Open. Returns true when this call
// performed the transition.
func (b *Breaker) Trip() bool {
	from, tripped := func() (State, bool) {
		b.mu.Lock()
		defer b.mu.Unlock()
		if b.state == Open {
			return Open, false
		}
		from := b.state
		b.open()
		return from, true
	}()
	if tripped {
		b.notify(from, Open)
	}
	return tripped
}

// open moves to Open and arms the jittered deadline. Caller holds b.mu.
//
//lint:ignore mutex-discipline open is only called with b.mu held by Failure and Trip
func (b *Breaker) open() {
	b.state = Open
	b.failures = 0
	b.opens++
	b.until = b.cfg.Now().Add(jittered(b.interval, b.cfg.Jitter, b.cfg.Rand))
}

// notify runs the transition hook outside the lock.
func (b *Breaker) notify(from, to State) {
	if b.cfg.OnTransition != nil {
		b.cfg.OnTransition(from, to)
	}
}

// jittered spreads d uniformly over [d*(1-j/2), d*(1+j/2)], clamped to
// be positive.
func jittered(d time.Duration, j float64, rnd func() float64) time.Duration {
	if j <= 0 {
		return d
	}
	f := 1 + j*(rnd()-0.5)
	out := time.Duration(float64(d) * f)
	if out <= 0 {
		out = d
	}
	return out
}

// Retry is an exponential-backoff retry policy: attempt k (0-based)
// waits Delay(k) before running. The zero value is usable and falls
// back to the package defaults.
type Retry struct {
	// Base is the delay before attempt 1 (attempt 0 runs immediately).
	// Default 100ms.
	Base time.Duration
	// Max caps the exponential growth. Default 30s.
	Max time.Duration
	// Multiplier scales the delay per attempt. Default 2.
	Multiplier float64
	// Jitter is the randomized fraction of each delay, as in
	// BreakerConfig.Jitter. Default 0.2; negative disables.
	Jitter float64
	// Rand yields values in [0,1) for jitter; nil means math/rand.
	Rand func() float64
}

// Delay returns the wait before the given 0-based attempt: 0 for the
// first, then Base growing by Multiplier per attempt, jittered, capped
// at Max.
func (r Retry) Delay(attempt int) time.Duration {
	if attempt <= 0 {
		return 0
	}
	base := r.Base
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxd := r.Max
	if maxd <= 0 {
		maxd = 30 * time.Second
	}
	if maxd < base {
		maxd = base
	}
	mult := r.Multiplier
	if mult <= 0 {
		mult = 2
	}
	jit := r.Jitter
	if jit == 0 {
		jit = 0.2
	}
	rnd := r.Rand
	if rnd == nil {
		rnd = rand.Float64
	}
	d := float64(base)
	for i := 1; i < attempt; i++ {
		d *= mult
		if d >= float64(maxd) {
			d = float64(maxd)
			break
		}
	}
	out := jittered(time.Duration(d), jit, rnd)
	if out > time.Duration(float64(maxd)*(1+jit/2)) {
		out = maxd
	}
	return out
}
