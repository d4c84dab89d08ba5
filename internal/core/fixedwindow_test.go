package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"streamhist/internal/datagen"
	"streamhist/internal/errs"
	"streamhist/internal/vopt"
)

func TestNewRejectsBadArgs(t *testing.T) {
	if _, err := New(0, 4, 0.1); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := New(8, 0, 0.1); err == nil {
		t.Error("zero buckets accepted")
	}
	// eps and delta must be finite and positive: a NaN or infinite one
	// would be written into every snapshot, which the codec refuses.
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := New(8, 4, bad); !errors.Is(err, errs.ErrBadEpsilon) {
			t.Errorf("New eps %v: err %v, want ErrBadEpsilon", bad, err)
		}
		if _, err := NewWithDelta(8, 4, bad, 0.1); !errors.Is(err, errs.ErrBadEpsilon) {
			t.Errorf("NewWithDelta eps %v: err %v, want ErrBadEpsilon", bad, err)
		}
		if _, err := NewWithDelta(8, 4, 0.1, bad); !errors.Is(err, errs.ErrBadDelta) {
			t.Errorf("NewWithDelta delta %v: err %v, want ErrBadDelta", bad, err)
		}
	}
}

func TestEmptyWindow(t *testing.T) {
	f, err := New(8, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Histogram(); err == nil {
		t.Error("Histogram on empty window succeeded")
	}
	if f.ApproxError() != 0 {
		t.Errorf("ApproxError = %v", f.ApproxError())
	}
}

// TestPaperExample1 reproduces the worked example of section 4.5: stream
// 100,0,0,0,1,1,1,1 with eps=1 and B=2 (the example applies the growth
// factor (1+eps) directly, so we construct with delta = eps = 1). After the
// window fills, queue 1 covers (0,0),(1,7); after 100 is dropped and a 1 is
// appended, CreateList must rediscover the transition at position 2 via
// binary search: queue 1 becomes (0,2),(3,5),(6,7) — the paper's endpoints
// 3, 6, 8 in 1-based positions — and the extracted histogram is the exact
// optimum (0,2),(3,7) with zero error.
func TestPaperExample1(t *testing.T) {
	f, err := NewWithDelta(8, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{100, 0, 0, 0, 1, 1, 1, 1} {
		f.Push(v)
	}
	q1 := f.queues[0]
	wantFirst := []iv{{A: 0, B: 0}, {A: 1, B: 7}}
	if len(q1) != len(wantFirst) {
		t.Fatalf("queue 1 after fill: %+v", q1)
	}
	for i, want := range wantFirst {
		if q1[i].A != want.A || q1[i].B != want.B {
			t.Errorf("interval %d = [%d,%d], want [%d,%d]", i, q1[i].A, q1[i].B, want.A, want.B)
		}
	}

	f.Push(1) // window becomes 0,0,0,1,1,1,1,1

	q1 = f.queues[0]
	wantSecond := []iv{{A: 0, B: 2}, {A: 3, B: 5}, {A: 6, B: 7}}
	if len(q1) != len(wantSecond) {
		t.Fatalf("queue 1 after slide: %+v", q1)
	}
	for i, want := range wantSecond {
		if q1[i].A != want.A || q1[i].B != want.B {
			t.Errorf("interval %d = [%d,%d], want [%d,%d]", i, q1[i].A, q1[i].B, want.A, want.B)
		}
	}
	if got := f.ApproxError(); got != 0 {
		t.Errorf("ApproxError = %v, want 0", got)
	}
	res, err := f.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if res.SSE != 0 {
		t.Errorf("SSE = %v, want 0; %v", res.SSE, res.Histogram)
	}
	bs := res.Histogram.Boundaries()
	if len(bs) != 2 || bs[0] != 2 || bs[1] != 7 {
		t.Errorf("boundaries = %v, want [2 7]", bs)
	}
}

// TestApproximationGuaranteeOverSlides drives streams through a window and
// checks, at every post-fill step, that the maintained error and the
// extracted histogram SSE stay within (1+eps) of the optimal B-bucket SSE
// of the current window contents — the paper's Theorem 1 claim.
func TestApproximationGuaranteeOverSlides(t *testing.T) {
	shapes := map[string]func() datagen.Generator{
		"utilization": func() datagen.Generator {
			return datagen.NewUtilization(datagen.UtilizationConfig{Seed: 21, Quantize: true})
		},
		"steps": func() datagen.Generator {
			g, _ := datagen.NewStepSignal(22, 15, 0, 200, 3, true)
			return g
		},
		"noise": func() datagen.Generator {
			rng := rand.New(rand.NewSource(23))
			return datagen.Func(func() float64 { return float64(rng.Intn(500)) })
		},
	}
	for name, mk := range shapes {
		for _, cfg := range []struct {
			n, b int
			eps  float64
		}{
			{64, 4, 0.1},
			{100, 6, 0.3},
			{48, 3, 0.05},
		} {
			g := mk()
			f, err := New(cfg.n, cfg.b, cfg.eps)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < cfg.n+40; i++ {
				f.Push(g.Next())
				if f.Len() < 2 {
					continue
				}
				win := f.Window()
				opt, err := vopt.Error(win, cfg.b)
				if err != nil {
					t.Fatal(err)
				}
				bound := (1+cfg.eps)*opt + 1e-6
				if got := f.ApproxError(); got > bound {
					t.Fatalf("%s step=%d n=%d b=%d eps=%g: ApproxError %v > (1+eps)*opt %v",
						name, i, cfg.n, cfg.b, cfg.eps, got, bound)
				}
				res, err := f.Histogram()
				if err != nil {
					t.Fatal(err)
				}
				if res.SSE > bound {
					t.Fatalf("%s step=%d: extracted SSE %v > %v", name, i, res.SSE, bound)
				}
				if res.SSE < opt-1e-6*(1+opt) {
					t.Fatalf("%s step=%d: SSE %v below optimal %v — impossible", name, i, res.SSE, opt)
				}
				if got, want := res.SSE, res.Histogram.SSE(win); math.Abs(got-want) > 1e-6*(1+want) {
					t.Fatalf("%s step=%d: reported SSE %v != actual %v", name, i, got, want)
				}
			}
		}
	}
}

// TestLinearScanMatchesBinarySearch: the ablation variant must produce
// interval covers with identical endpoints (the binary search only changes
// how the maximal endpoint is located, not which one it is) on monotone
// inputs, and in all cases the same approximation quality.
func TestLinearScanMatchesBinarySearch(t *testing.T) {
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 24, Quantize: true})
	data := datagen.Series(g, 200)

	bs, _ := New(64, 4, 0.2)
	ls, err := NewReference(64, 4, 0.2, bs.Delta(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range data {
		bs.Push(v)
		ls.Push(v)
		if math.Abs(bs.ApproxError()-ls.ApproxError()) > 1e-6*(1+bs.ApproxError()) {
			t.Fatalf("linear scan error %v != binary search error %v",
				ls.ApproxError(), bs.ApproxError())
		}
	}
}

func TestPushLazyMatchesPush(t *testing.T) {
	g, _ := datagen.NewRandomWalk(25, 100, 5, 0, 200, true)
	data := datagen.Series(g, 150)
	eager, _ := New(50, 5, 0.2)
	lazy, _ := New(50, 5, 0.2)
	for _, v := range data {
		eager.Push(v)
		lazy.PushLazy(v)
	}
	if e, l := eager.ApproxError(), lazy.ApproxError(); math.Abs(e-l) > 1e-9*(1+e) {
		t.Errorf("lazy error %v != eager %v", l, e)
	}
	he, err := eager.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	hl, err := lazy.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if he.SSE != hl.SSE {
		t.Errorf("lazy SSE %v != eager %v", hl.SSE, he.SSE)
	}
}

func TestWindowAccessors(t *testing.T) {
	f, _ := New(4, 2, 0.5)
	for i := 1; i <= 6; i++ {
		f.Push(float64(i))
	}
	if f.Len() != 4 || f.Capacity() != 4 || f.Seen() != 6 {
		t.Errorf("Len=%d Cap=%d Seen=%d", f.Len(), f.Capacity(), f.Seen())
	}
	if f.WindowStart() != 2 {
		t.Errorf("WindowStart = %d", f.WindowStart())
	}
	win := f.Window()
	want := []float64{3, 4, 5, 6}
	for i := range want {
		if win[i] != want[i] || f.Value(i) != want[i] {
			t.Fatalf("Window = %v, Value(%d) = %v", win, i, f.Value(i))
		}
	}
	if f.Buckets() != 2 || f.Epsilon() != 0.5 {
		t.Errorf("Buckets=%d Epsilon=%v", f.Buckets(), f.Epsilon())
	}
	sizes := f.QueueSizes()
	if len(sizes) != 1 || sizes[0] == 0 {
		t.Errorf("QueueSizes = %v", sizes)
	}
	if ev, cand := f.Evals(); ev == 0 || cand < 0 {
		t.Errorf("Evals = %d,%d", ev, cand)
	}
}

// TestQueueCoversWindow: after every push the intervals of each queue must
// partition [0, w-1] exactly.
func TestQueueCoversWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	f, _ := New(32, 5, 0.15)
	for step := 0; step < 100; step++ {
		f.Push(float64(rng.Intn(300)))
		w := f.Len()
		for k, q := range f.queues {
			next := 0
			for _, iv := range q {
				if iv.A != next {
					t.Fatalf("step %d queue %d: interval starts at %d, want %d (%+v)", step, k+1, iv.A, next, q)
				}
				if iv.B < iv.A {
					t.Fatalf("step %d queue %d: inverted interval %+v", step, k+1, iv)
				}
				next = iv.B + 1
			}
			if next != w {
				t.Fatalf("step %d queue %d: cover ends at %d, want %d", step, k+1, next-1, w-1)
			}
		}
	}
}

// TestGrowthInvariant: within each interval the error at the end must be
// within (1+delta) of the error at the start — the defining property the
// search relies on.
func TestGrowthInvariant(t *testing.T) {
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 27, Quantize: true})
	f, _ := New(64, 4, 0.2)
	for step := 0; step < 150; step++ {
		f.Push(g.Next())
		for k, q := range f.queues {
			for _, iv := range q {
				if iv.HErrB > (1+f.Delta())*iv.HErrA+1e-9 {
					t.Fatalf("step %d queue %d: interval [%d,%d] grows %v -> %v beyond (1+delta)",
						step, k+1, iv.A, iv.B, iv.HErrA, iv.HErrB)
				}
			}
		}
	}
}

func TestSingleBucketWindow(t *testing.T) {
	f, _ := New(16, 1, 0.5)
	vals := []float64{2, 4, 6, 8}
	sum, sq := 0.0, 0.0
	for _, v := range vals {
		f.Push(v)
		sum += v
		sq += v * v
	}
	want := sq - sum*sum/4
	if got := f.ApproxError(); math.Abs(got-want) > 1e-9 {
		t.Errorf("ApproxError = %v, want %v", got, want)
	}
	res, err := f.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if res.Histogram.NumBuckets() != 1 {
		t.Errorf("buckets = %d", res.Histogram.NumBuckets())
	}
	if v := res.Histogram.Buckets[0].Value; v != 5 {
		t.Errorf("mean = %v", v)
	}
}

func TestDeltaTradeoff(t *testing.T) {
	// Larger delta must not do more HERROR evaluations than smaller delta
	// on the same stream (coarser intervals => fewer probes).
	g1 := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 28, Quantize: true})
	data := datagen.Series(g1, 300)
	coarse, _ := NewWithDelta(128, 6, 0.5, 0.5)
	fine, _ := NewWithDelta(128, 6, 0.5, 0.01)
	for _, v := range data {
		coarse.Push(v)
		fine.Push(v)
	}
	ce, _ := coarse.Evals()
	fe, _ := fine.Evals()
	if ce > fe {
		t.Errorf("coarse delta used more evaluations (%d) than fine (%d)", ce, fe)
	}
}

// TestSeekEndpointBefore checks the resumed lookup evalHErr uses against
// the cold binary search Reference keeps, over random covers and probe
// sequences that move forward, stay put, move back, jump to either end
// and fall before the first or past the last endpoint. The cursor
// carries over from one cover to the next, as it does from one level to
// the next, and arbitrary hints, out of range included, are clamped.
func TestSeekEndpointBefore(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(q []iv, c, hint int) int {
		t.Helper()
		got := seekEndpointBefore(q, c, hint)
		if want := lastEndpointBefore(q, c); got != want {
			t.Fatalf("%d intervals, c=%d, hint %d: got %d, want %d", len(q), c, hint, got, want)
		}
		return got
	}
	for _, c := range []int{0, 1, 7} {
		for _, hint := range []int{-5, -1, 0, 3} {
			check(nil, c, hint) // empty queue
		}
	}
	seek, c := -1, 0
	for trial := 0; trial < 300; trial++ {
		w := 1 + rng.Intn(400)
		var q []iv
		for lo := 0; lo < w; {
			b := lo + rng.Intn(1+rng.Intn(16))
			if b >= w {
				b = w - 1
			}
			q = append(q, iv{A: lo, B: b})
			lo = b + 1
		}
		for probe := 0; probe < 200; probe++ {
			switch rng.Intn(6) {
			case 0: // repeated
			case 1:
				c -= 1 + rng.Intn(8) // decreasing
			case 2:
				c += rng.Intn(40)
			case 3:
				c = rng.Intn(q[0].B + 1) // at or before the first endpoint
			case 4:
				c = q[len(q)-1].B + 1 + rng.Intn(3) // past the last endpoint
			case 5:
				c = rng.Intn(w)
			}
			if c < 0 {
				c = 0
			}
			seek = check(q, c, seek)
			check(q, c, rng.Intn(len(q)+10)-5) // any hint
		}
	}
}
