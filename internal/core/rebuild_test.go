package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"streamhist/internal/vopt"
)

// newExact builds a production maintainer; delta == 0 selects the
// default eps/(2B).
func newExact(t *testing.T, n, b int, eps, delta float64) *FixedWindow {
	t.Helper()
	if delta == 0 {
		delta = eps / (2 * float64(b))
	}
	fw, err := NewWithDelta(n, b, eps, delta)
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

// refFor builds the cold CreateList reference with fw's parameters.
func refFor(t *testing.T, fw *FixedWindow) *Reference {
	t.Helper()
	ref, err := NewReference(fw.Capacity(), fw.Buckets(), fw.Epsilon(), fw.Delta(), false)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// requireSameState asserts that two maintainers hold bit-identical
// interval queues and report identical approximation errors and
// histograms. iv is a plain struct of ints and float64s, so == compares
// the stored HERROR values bit for bit.
func requireSameState(t *testing.T, ctx string, ref, opt *FixedWindow) {
	t.Helper()
	ref.ensureFresh()
	opt.ensureFresh()
	if len(ref.queues) != len(opt.queues) {
		t.Fatalf("%s: queue count %d vs %d", ctx, len(ref.queues), len(opt.queues))
	}
	for k := range ref.queues {
		rq, oq := ref.queues[k], opt.queues[k]
		if len(rq) != len(oq) {
			t.Fatalf("%s: level %d: %d vs %d intervals", ctx, k+1, len(rq), len(oq))
		}
		for i := range rq {
			if rq[i] != oq[i] {
				t.Fatalf("%s: level %d interval %d: %+v vs %+v", ctx, k+1, i, rq[i], oq[i])
			}
		}
	}
	if re, oe := ref.ApproxError(), opt.ApproxError(); re != oe {
		t.Fatalf("%s: ApproxError %v vs %v", ctx, re, oe)
	}
	rh, rerr := ref.Histogram()
	oh, oerr := opt.Histogram()
	if (rerr == nil) != (oerr == nil) {
		t.Fatalf("%s: Histogram err %v vs %v", ctx, rerr, oerr)
	}
	if rerr != nil {
		return
	}
	if rh.SSE != oh.SSE {
		t.Fatalf("%s: SSE %v vs %v", ctx, rh.SSE, oh.SSE)
	}
	rb, ob := rh.Histogram.Buckets, oh.Histogram.Buckets
	if len(rb) != len(ob) {
		t.Fatalf("%s: bucket count %d vs %d", ctx, len(rb), len(ob))
	}
	for i := range rb {
		if rb[i] != ob[i] {
			t.Fatalf("%s: bucket %d: %+v vs %+v", ctx, i, rb[i], ob[i])
		}
	}
}

// TestRebuildEquivalenceRandom drives the production engine and the
// reference through a randomized stream long enough to fill the window,
// slide it through a full wrap-around of the prefix arrays, and checks
// the complete state after every push.
func TestRebuildEquivalenceRandom(t *testing.T) {
	const n, b = 96, 6
	for _, eps := range []float64{0.1, 0.5} {
		for seed := int64(1); seed <= 3; seed++ {
			opt := newExact(t, n, b, eps, 0)
			ref := refFor(t, opt)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 3*n; i++ { // > 2n: crosses the prefix-array rebase
				x := rng.NormFloat64()*10 + float64(i%7)
				ref.Push(x)
				opt.Push(x)
				requireSameState(t, "random", ref.FixedWindow, opt)
			}
		}
	}
}

// TestRebuildEquivalenceShapes replays the adversarial window shapes of
// the matrix sweep through the production engine and the reference.
func TestRebuildEquivalenceShapes(t *testing.T) {
	const n = 48
	for name, gen := range adversarialShapes {
		for _, b := range []int{2, 5} {
			for _, delta := range []float64{0.1, 0.5} {
				opt := newExact(t, n, b, delta, delta)
				ref := refFor(t, opt)
				rngR := rand.New(rand.NewSource(220))
				rngO := rand.New(rand.NewSource(220))
				for i := 0; i < n+64; i++ {
					ref.Push(gen(i, rngR))
					opt.Push(gen(i, rngO))
					requireSameState(t, name, ref.FixedWindow, opt)
				}
			}
		}
	}
}

// TestRebuildEquivalenceBatched mixes Push, PushLazy and PushBatch so the
// window slides by more than one position between rebuilds, exercising
// the warm start's shift mapping for bursts, including bursts larger
// than the window itself.
func TestRebuildEquivalenceBatched(t *testing.T) {
	const n, b = 64, 5
	opt := newExact(t, n, b, 0.1, 0)
	ref := refFor(t, opt)
	rng := rand.New(rand.NewSource(7))
	step := 0
	feed := func(k int) []float64 {
		vs := make([]float64, k)
		for i := range vs {
			vs[i] = rng.NormFloat64() * float64(1+step%11)
			step++
		}
		return vs
	}
	for round := 0; round < 40; round++ {
		switch round % 4 {
		case 0:
			for _, v := range feed(1 + round%3) {
				ref.Push(v)
				opt.Push(v)
			}
		case 1:
			for _, v := range feed(5) {
				ref.PushLazy(v)
				opt.PushLazy(v)
			}
		case 2:
			vs := feed(n/2 + round)
			ref.PushBatch(vs)
			opt.PushBatch(vs)
		case 3:
			vs := feed(n + 9) // burst exceeding the window
			ref.PushBatch(vs)
			opt.PushBatch(vs)
		}
		requireSameState(t, "batched", ref.FixedWindow, opt)
	}
}

// TestRebuildEquivalenceDaemonDefaults checks the production engine
// against the reference at the daemon's defaults (n=4096, B=16,
// delta = eps = 0.1) on the quantized utilization trace. There intervals
// span tens of positions and half the warm guesses are interpolated, which
// the small windows above barely exercise. It runs 64 one-point slides,
// then 256-point bursts, lazy and batched, then a burst longer than the
// window and more one-point slides, comparing after every flush.
func TestRebuildEquivalenceDaemonDefaults(t *testing.T) {
	const n, b = 4096, 16
	opt := newExact(t, n, b, 0.1, 0.1)
	ref := refFor(t, opt)
	vals := gateValues(3 * n)
	pos := 0
	next := func(k int) []float64 { pos += k; return vals[pos-k : pos] }
	batch := func(vs []float64) {
		ref.PushBatch(vs)
		opt.PushBatch(vs)
		requireSameState(t, "daemon-batch", ref.FixedWindow, opt)
	}
	slides := func(k int) {
		for _, v := range next(k) {
			ref.Push(v)
			opt.PushLazy(v)
			requireSameState(t, "daemon-slide", ref.FixedWindow, opt)
		}
	}
	batch(next(n))
	slides(64)
	for round := 0; round < 4; round++ {
		if round%2 == 0 {
			batch(next(256))
			continue
		}
		vs := next(256)
		ref.PushBatch(vs)
		for _, v := range vs {
			opt.PushLazy(v)
		}
		requireSameState(t, "daemon-lazy-burst", ref.FixedWindow, opt)
	}
	batch(next(n + 100))
	slides(16)
	if seeded, _ := opt.WarmStats(); seeded == 0 {
		t.Fatal("no warm guess verified")
	}
}

// ---------------------------------------------------------------------------
// Incremental cover repair. Unlike the exact rebuild, the incremental
// engine is NOT bit-identical to the reference: stored HERROR
// bounds may be stale by up to one fallback period K. Staleness has two
// consequences the tests below pin. Within a window, the per-level
// containment factor widens from (1+delta) to (1+delta)^2 between exact
// rebuilds, so the analogue of the matrix sweep's loose (1+delta)^(2B)
// bound is (1+delta)^(4B). Across windows, a stale stored bound is a
// valid over-estimate of a window up to K slides OLD (eviction only
// decreases prefix errors — the monotone-decrease fact), so when the
// true error collapses suddenly (a spike leaving the window) the
// incremental estimate may lag the collapse by up to one fallback
// period. The resulting envelope is time-lagged on the high side:
//
//	cold_t / factor  <=  incr_t  <=  factor * max(cold_{t-K} .. cold_t)
//
// with factor = (1+delta)^(4B). The extracted histogram needs no lag: its
// reported SSE is the exact SSE of the chosen bucketization, so it is
// bounded below by the true optimum on the CURRENT window.

// newIncr builds a maintainer running the incremental cover-repair
// engine over the exact-rebuild fallback path.
func newIncr(t *testing.T, n, b int, eps, delta float64) *FixedWindow {
	t.Helper()
	fw := newExact(t, n, b, eps, delta)
	fw.SetIncrementalRebuild(true)
	return fw
}

// coldTrail is the trailing window of cold-reference errors the staleness
// budget lets the incremental estimate lag behind: one slot per slide of
// the last K+1 windows.
type coldTrail struct {
	ring []float64
	i    int
}

func newColdTrail(k int) *coldTrail { return &coldTrail{ring: make([]float64, k+1)} }

func (c *coldTrail) push(v float64) { c.ring[c.i%len(c.ring)] = v; c.i++ }

func (c *coldTrail) max() float64 {
	n := c.i
	if n > len(c.ring) {
		n = len(c.ring)
	}
	m := 0.0
	for j := 0; j < n; j++ {
		if c.ring[j] > m {
			m = c.ring[j]
		}
	}
	return m
}

// requireIncrEnvelope asserts the incremental engine's reported error
// sits inside the staleness envelope: at most factor times the worst
// cold-reference error of the trailing fallback period, and at least the
// current cold-reference error over factor.
func requireIncrEnvelope(t *testing.T, ctx string, step int, trail *coldTrail, cold, incr, factor float64) {
	t.Helper()
	if incr > factor*trail.max()+1e-9 {
		t.Fatalf("%s step %d: incremental ApproxError %v exceeds %v * trailing cold max %v",
			ctx, step, incr, factor, trail.max())
	}
	if cold > factor*incr+1e-9 {
		t.Fatalf("%s step %d: incremental ApproxError %v below cold %v / factor %v",
			ctx, step, incr, cold, factor)
	}
}

// TestIncrementalApproxBoundRandom drives the incremental engine and the
// cold reference through randomized streams long enough to wrap the
// prefix arrays and cross several scheduled exact rebuilds, checking the
// staleness envelope after every push. It also pins the accounting
// invariant: once a cover exists, every maintenance pass either completes
// incrementally or is counted as a fallback — passes cannot vanish.
func TestIncrementalApproxBoundRandom(t *testing.T) {
	const n, b = 96, 6
	for _, eps := range []float64{0.1, 0.5} {
		for seed := int64(1); seed <= 3; seed++ {
			incr := newIncr(t, n, b, eps, 0)
			cold := refFor(t, incr)
			factor := math.Pow(1+incr.Delta(), 4*float64(b))
			trail := newColdTrail(incr.incrEveryEff())
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 3*n; i++ {
				x := rng.NormFloat64()*10 + float64(i%7)
				cold.Push(x)
				trail.push(cold.ApproxError())
				incr.Push(x)
				requireIncrEnvelope(t, "random", i, trail, cold.ApproxError(), incr.ApproxError(), factor)
			}
			hits, _, falls := incr.IncrementalStats()
			if hits == 0 {
				t.Fatalf("eps=%g seed=%d: no pass completed incrementally", eps, seed)
			}
			// The first push finds no cover (not a fallback: there was
			// nothing to maintain); each of the remaining 3n-1 passes must
			// be a hit or a fallback.
			if got := hits + falls; got != int64(3*n-1) {
				t.Fatalf("eps=%g seed=%d: %d hits + %d fallbacks = %d passes, want %d",
					eps, seed, hits, falls, got, 3*n-1)
			}
		}
	}
}

// TestIncrementalApproxBoundShapes replays the adversarial window shapes
// against the incremental engine across the (B, delta) grid, checking the
// ApproxError envelope on every slide and, periodically, the extracted
// histogram's exact SSE against the true V-optimal error: at most
// (1+delta)^(4B) times optimal, never below it.
func TestIncrementalApproxBoundShapes(t *testing.T) {
	const n = 48
	for name, gen := range adversarialShapes {
		for _, b := range []int{2, 5} {
			for _, delta := range []float64{0.1, 0.5} {
				incr := newIncr(t, n, b, delta, delta)
				cold := refFor(t, incr)
				factor := math.Pow(1+delta, 4*float64(b))
				trail := newColdTrail(incr.incrEveryEff())
				rngC := rand.New(rand.NewSource(220))
				rngI := rand.New(rand.NewSource(220))
				for i := 0; i < n+64; i++ {
					cold.Push(gen(i, rngC))
					trail.push(cold.ApproxError())
					incr.Push(gen(i, rngI))
					requireIncrEnvelope(t, name, i, trail, cold.ApproxError(), incr.ApproxError(), factor)
					if incr.Len() < 2 || i%7 != 0 {
						continue
					}
					res, err := incr.Histogram()
					if err != nil {
						t.Fatalf("%s b=%d delta=%g step=%d: %v", name, b, delta, i, err)
					}
					opt, err := vopt.Error(incr.Window(), b)
					if err != nil {
						t.Fatal(err)
					}
					// The histogram's lag allowance: its boundaries come from
					// queues up to K slides stale, so its SSE is enveloped by
					// the trailing cold max like ApproxError is — but never
					// below the current optimum, because the reported SSE is
					// exact for the extracted bucketization.
					if lim := factor * (trail.max() + opt); res.SSE > lim+1e-5 {
						t.Fatalf("%s b=%d delta=%g step=%d: SSE %v > envelope %v (opt %v)",
							name, b, delta, i, res.SSE, lim, opt)
					}
					if res.SSE < opt-1e-5*(1+opt) {
						t.Fatalf("%s step=%d: SSE %v below optimal %v", name, i, res.SSE, opt)
					}
				}
			}
		}
	}
}

// TestIncrementalTogglesMidStream flips the incremental engine off and on
// while a stream is in flight. While on, the ApproxError envelope holds;
// the moment it is toggled off, the very next maintenance pass is an
// exact rebuild, so the state must re-converge to the cold reference bit
// for bit after a single push — the incrementally-maintained cover is a
// safe warm-start seed because every seed is predicate-verified.
func TestIncrementalTogglesMidStream(t *testing.T) {
	const n, b = 80, 6
	opt := newIncr(t, n, b, 0.2, 0)
	ref := refFor(t, opt)
	factor := math.Pow(1+opt.Delta(), 4*float64(b))
	trail := newColdTrail(opt.incrEveryEff())
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4*n; i++ {
		x := rng.Float64() * 100
		ref.Push(x)
		trail.push(ref.ApproxError())
		opt.Push(x)
		requireIncrEnvelope(t, "incr-toggle", i, trail, ref.ApproxError(), opt.ApproxError(), factor)
		if i%(n/2) == n/4 {
			opt.SetIncrementalRebuild(false)
			y := rng.Float64() * 100
			ref.Push(y)
			trail.push(ref.ApproxError())
			opt.Push(y)
			requireSameState(t, "incr-toggle-off", ref.FixedWindow, opt)
			opt.SetIncrementalRebuild(true)
		}
	}
}

// TestIncrementalBudgetKnobs overrides the derived staleness budgets —
// from "exact rebuild every other pass" down to "one repair per pass" —
// and checks the envelope holds for each: the budget trades work for
// staleness inside the bound, never correctness.
func TestIncrementalBudgetKnobs(t *testing.T) {
	const n, b = 64, 5
	for _, budget := range []struct{ every, repairs int }{
		{2, 0}, {16, 0}, {1024, 1}, {0, 1},
	} {
		incr := newIncr(t, n, b, 0.2, 0)
		cold := refFor(t, incr)
		incr.incrEvery, incr.incrBudget = budget.every, budget.repairs
		factor := math.Pow(1+incr.Delta(), 4*float64(b))
		trail := newColdTrail(incr.incrEveryEff())
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 3*n; i++ {
			x := rng.NormFloat64() * 25
			cold.Push(x)
			trail.push(cold.ApproxError())
			incr.Push(x)
			requireIncrEnvelope(t, "budget", i, trail, cold.ApproxError(), incr.ApproxError(), factor)
		}
	}
}

// TestIncrementalSnapshotRoundTrip pins two restore properties: the
// incremental engine's switch survives UnmarshalBinary as an attachment
// (like the instrumentation), and the restored state is the exact rebuild
// of the snapshotted window — indistinguishable from the reference fed the
// same window — after which incremental maintenance resumes.
func TestIncrementalSnapshotRoundTrip(t *testing.T) {
	const n, b = 64, 5
	src := newIncr(t, n, b, 0.1, 0)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2*n; i++ {
		src.Push(rng.NormFloat64() * 40)
	}
	blob, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dst := newIncr(t, n, b, 0.1, 0)
	if err := dst.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !dst.incrOn {
		t.Fatal("incremental switch lost in restore")
	}
	cold := refFor(t, src)
	for _, v := range src.Window() {
		cold.PushLazy(v)
	}
	requireSameState(t, "restored", cold.FixedWindow, dst)
	// Maintenance after the restore runs incrementally again.
	h0, _, _ := dst.IncrementalStats()
	factor := math.Pow(1+dst.Delta(), 4*float64(b))
	trail := newColdTrail(dst.incrEveryEff())
	for i := 0; i < n; i++ {
		x := rng.NormFloat64() * 40
		cold.Push(x)
		trail.push(cold.ApproxError())
		dst.Push(x)
		requireIncrEnvelope(t, "post-restore", i, trail, cold.ApproxError(), dst.ApproxError(), factor)
	}
	if h1, _, _ := dst.IncrementalStats(); h1 == h0 {
		t.Fatal("no incremental pass completed after restore")
	}
}

// TestIncrementalPushBatchSinglePass pins the batching contract under the
// incremental engine: one PushBatch call performs exactly one maintenance
// pass (incremental or fallback, never one per element), and its result
// is bit-identical to PushLazy per element followed by one flush.
func TestIncrementalPushBatchSinglePass(t *testing.T) {
	const n, b = 64, 5
	batch := newIncr(t, n, b, 0.1, 0)
	lazy := newIncr(t, n, b, 0.1, 0)
	rng := rand.New(rand.NewSource(9))
	batch.Push(1) // establish a cover so every later pass is hit-or-fallback
	lazy.Push(1)
	for round := 0; round < 40; round++ {
		k := 1 + round%9
		if round%11 == 10 {
			k = n + 5 // burst exceeding the window
		}
		vs := make([]float64, k)
		for i := range vs {
			vs[i] = rng.NormFloat64() * 50
		}
		h0, _, f0 := batch.IncrementalStats()
		batch.PushBatch(vs)
		h1, _, f1 := batch.IncrementalStats()
		if passes := (h1 - h0) + (f1 - f0); passes != 1 {
			t.Fatalf("round %d (batch %d): %d maintenance passes, want 1", round, k, passes)
		}
		for _, v := range vs {
			lazy.PushLazy(v)
		}
		requireSameState(t, "batch-vs-lazy", batch, lazy)
	}
}

// TestTimeWindowPushBatchEquivalence checks the TimeWindow batching fix:
// a batch at one timestamp leaves the identical window — and, since the
// exact rebuild is a pure function of the window, identical state — as a
// loop of per-point pushes, while performing a single maintenance pass.
func TestTimeWindowPushBatchEquivalence(t *testing.T) {
	const n, b = 48, 4
	span := time.Minute
	mk := func() *TimeWindow {
		tw, err := NewTimeWindow(n, b, 0.2, 0.05, span)
		if err != nil {
			t.Fatal(err)
		}
		return tw
	}
	batch, loop := mk(), mk()
	rng := rand.New(rand.NewSource(21))
	ts := time.Unix(1000, 0)
	for round := 0; round < 25; round++ {
		ts = ts.Add(time.Duration(1+round%7) * time.Second)
		vs := make([]float64, 1+round%6)
		for i := range vs {
			vs[i] = rng.NormFloat64() * 30
		}
		if err := batch.PushBatch(ts, vs); err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			if err := loop.Push(ts, v); err != nil {
				t.Fatal(err)
			}
		}
		requireSameState(t, "timewindow-batch", loop.fw, batch.fw)
		if got, want := batch.Len(), loop.Len(); got != want {
			t.Fatalf("round %d: batch window %d points vs loop %d", round, got, want)
		}
	}
	// Under the incremental engine the batch still costs one pass.
	itw := mk()
	itw.SetIncrementalRebuild(true)
	if err := itw.Push(ts, 1); err != nil {
		t.Fatal(err)
	}
	h0, _, f0 := itw.fw.IncrementalStats()
	if err := itw.PushBatch(ts.Add(time.Second), []float64{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	h1, _, f1 := itw.fw.IncrementalStats()
	if passes := (h1 - h0) + (f1 - f0); passes != 1 {
		t.Fatalf("time-window batch: %d maintenance passes, want 1", passes)
	}
}
