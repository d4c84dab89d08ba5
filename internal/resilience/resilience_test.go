package resilience

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic breaker
// timing.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time // guarded by mu
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// fixedRand always returns 0.5, which makes jittered() the identity.
func fixedRand() float64 { return 0.5 }

func testBreaker(clk *fakeClock, hook func(from, to State)) *Breaker {
	return NewBreaker(BreakerConfig{
		Threshold:    3,
		Backoff:      100 * time.Millisecond,
		MaxBackoff:   400 * time.Millisecond,
		Now:          clk.Now,
		Rand:         fixedRand,
		OnTransition: hook,
	})
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	var transitions []string
	b := testBreaker(clk, func(from, to State) {
		transitions = append(transitions, from.String()+">"+to.String())
	})
	if b.State() != Closed {
		t.Fatalf("initial state %v", b.State())
	}
	if b.Failure() || b.Failure() {
		t.Fatal("tripped before threshold")
	}
	if b.State() != Closed {
		t.Fatalf("state after 2 failures: %v", b.State())
	}
	if !b.Failure() {
		t.Fatal("third failure did not trip")
	}
	if b.State() != Open || b.Opens() != 1 {
		t.Fatalf("state=%v opens=%d after trip", b.State(), b.Opens())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed before backoff elapsed")
	}
	if len(transitions) != 1 || transitions[0] != "closed>open" {
		t.Fatalf("transitions %v", transitions)
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := testBreaker(clk, nil)
	b.Failure()
	b.Failure()
	b.Success() // clears the streak
	b.Failure()
	b.Failure()
	if b.State() != Closed {
		t.Fatalf("state %v: success did not reset the streak", b.State())
	}
	if !b.Failure() {
		t.Fatal("fresh streak of 3 did not trip")
	}
}

func TestBreakerProbeAndRecovery(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := testBreaker(clk, nil)
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	// Before the interval: no probe; NextProbeIn reports the wait.
	if b.Allow() {
		t.Fatal("probe granted early")
	}
	if d := b.NextProbeIn(); d != 100*time.Millisecond {
		t.Fatalf("NextProbeIn = %v, want 100ms", d)
	}
	clk.Advance(100 * time.Millisecond)
	if d := b.NextProbeIn(); d != 0 {
		t.Fatalf("NextProbeIn after backoff = %v, want 0", d)
	}
	// Exactly one caller wins the probe.
	if !b.Allow() {
		t.Fatal("probe refused after backoff")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state %v after probe grant", b.State())
	}
	if b.Allow() {
		t.Fatal("second probe granted while half-open")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state %v after probe success", b.State())
	}
	// Backoff reset: a re-trip starts from the base interval again.
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	if d := b.NextProbeIn(); d != 100*time.Millisecond {
		t.Fatalf("interval after recovery = %v, want base 100ms", d)
	}
}

func TestBreakerBackoffDoublesAndCaps(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := testBreaker(clk, nil)
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	want := []time.Duration{
		100 * time.Millisecond, // first open
		200 * time.Millisecond, // failed probe 1
		400 * time.Millisecond, // failed probe 2
		400 * time.Millisecond, // capped at MaxBackoff
	}
	for i, w := range want {
		if d := b.NextProbeIn(); d != w {
			t.Fatalf("open %d: NextProbeIn = %v, want %v", i, d, w)
		}
		clk.Advance(w)
		if !b.Allow() {
			t.Fatalf("open %d: probe refused", i)
		}
		if !b.Failure() {
			t.Fatalf("open %d: failed probe did not re-open", i)
		}
	}
	if got := b.Opens(); got != int64(len(want))+1 {
		t.Fatalf("opens = %d, want %d", got, len(want)+1)
	}
}

func TestBreakerJitterBounds(t *testing.T) {
	for _, r := range []float64{0, 0.25, 0.5, 0.999999} {
		clk := &fakeClock{t: time.Unix(0, 0)}
		b := NewBreaker(BreakerConfig{
			Threshold: 1,
			Backoff:   time.Second,
			Jitter:    0.5,
			Now:       clk.Now,
			Rand:      func() float64 { return r },
		})
		b.Failure()
		d := b.NextProbeIn()
		lo, hi := 750*time.Millisecond, 1250*time.Millisecond
		if d < lo || d > hi {
			t.Errorf("rand=%v: interval %v outside [%v, %v]", r, d, lo, hi)
		}
	}
}

func TestBreakerTripForcesOpen(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := testBreaker(clk, nil)
	if !b.Trip() {
		t.Fatal("Trip on closed breaker returned false")
	}
	if b.State() != Open {
		t.Fatalf("state %v after Trip", b.State())
	}
	if b.Trip() {
		t.Fatal("Trip on open breaker claimed a transition")
	}
}

func TestBreakerConcurrentProbeSingleWinner(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := testBreaker(clk, nil)
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	clk.Advance(time.Second)
	var granted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.Allow() {
				granted.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := granted.Load(); got != 1 {
		t.Fatalf("%d probes granted, want exactly 1", got)
	}
}

// TestBreakerRaces hammers every method concurrently under -race.
func TestBreakerRaces(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 2, Backoff: time.Nanosecond, MaxBackoff: time.Microsecond})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				switch (id + j) % 5 {
				case 0:
					b.Failure()
				case 1:
					b.Success()
				case 2:
					b.Allow()
				case 3:
					_ = b.State()
					_ = b.NextProbeIn()
				case 4:
					if j%100 == 0 {
						b.Trip()
					}
					_ = b.Opens()
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestRetryDelayGrowthAndCap(t *testing.T) {
	r := Retry{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Multiplier: 2, Jitter: -1}
	want := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond,
		40 * time.Millisecond, 80 * time.Millisecond, 80 * time.Millisecond}
	for k, w := range want {
		if d := r.Delay(k); d != w {
			t.Errorf("Delay(%d) = %v, want %v", k, d, w)
		}
	}
}

func TestRetryDelayJitterBounds(t *testing.T) {
	for _, rv := range []float64{0, 0.5, 0.999999} {
		r := Retry{Base: 100 * time.Millisecond, Max: time.Second, Jitter: 0.5,
			Rand: func() float64 { return rv }}
		for k := 1; k <= 6; k++ {
			d := r.Delay(k)
			if d <= 0 || d > time.Duration(float64(time.Second)*1.25) {
				t.Errorf("rand=%v Delay(%d) = %v out of bounds", rv, k, d)
			}
		}
	}
}
