package agglom

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"streamhist/internal/datagen"
	"streamhist/internal/errs"
	"streamhist/internal/obs"
	"streamhist/internal/vopt"
)

func TestNewRejectsBadArgs(t *testing.T) {
	if _, err := New(0, 0.1); err == nil {
		t.Error("zero buckets accepted")
	}
	// eps must be finite and positive: a NaN or infinite one would be
	// written into every snapshot, which the codec refuses to read back.
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := New(4, bad); !errors.Is(err, errs.ErrBadEpsilon) {
			t.Errorf("eps %v: err %v, want ErrBadEpsilon", bad, err)
		}
	}
}

func TestEmptySummaryHasNoHistogram(t *testing.T) {
	s, err := New(4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Histogram(); err == nil {
		t.Error("Histogram on empty summary succeeded")
	}
	if s.ApproxError() != 0 {
		t.Errorf("ApproxError = %v", s.ApproxError())
	}
}

func TestSinglePoint(t *testing.T) {
	s, _ := New(3, 0.5)
	s.Push(42)
	res, err := s.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if res.SSE != 0 {
		t.Errorf("SSE = %v", res.SSE)
	}
	if v, ok := res.Histogram.EstimatePoint(0); !ok || v != 42 {
		t.Errorf("point = %v,%v", v, ok)
	}
}

func TestPerfectlyBucketableStream(t *testing.T) {
	// Three flat runs, three buckets: approximate error must be 0 and the
	// extracted histogram exact.
	s, _ := New(3, 0.1)
	data := make([]float64, 0, 30)
	for _, level := range []float64{5, 50, 20} {
		for i := 0; i < 10; i++ {
			data = append(data, level)
			s.Push(level)
		}
	}
	if got := s.ApproxError(); got != 0 {
		t.Errorf("ApproxError = %v, want 0", got)
	}
	res, err := s.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if res.SSE != 0 {
		t.Errorf("extracted SSE = %v, want 0; %v", res.SSE, res.Histogram)
	}
	if got := res.Histogram.SSE(data); got != 0 {
		t.Errorf("actual SSE = %v", got)
	}
}

// TestApproximationGuarantee is the paper's central claim for Algorithm
// AgglomerativeHistogram: the maintained error is within (1+eps) of the
// optimal B-bucket SSE. We check both the reported ApproxError and the
// exact SSE of the extracted histogram on several stream shapes.
func TestApproximationGuarantee(t *testing.T) {
	shapes := map[string]func(n int) []float64{
		"utilization": func(n int) []float64 {
			return datagen.Series(datagen.NewUtilization(datagen.UtilizationConfig{Seed: 11, Quantize: true}), n)
		},
		"steps": func(n int) []float64 {
			g, _ := datagen.NewStepSignal(12, 40, 0, 500, 5, true)
			return datagen.Series(g, n)
		},
		"walk": func(n int) []float64 {
			g, _ := datagen.NewRandomWalk(13, 500, 10, 0, 1000, true)
			return datagen.Series(g, n)
		},
		"noise": func(n int) []float64 {
			rng := rand.New(rand.NewSource(14))
			out := make([]float64, n)
			for i := range out {
				out[i] = float64(rng.Intn(1000))
			}
			return out
		},
	}
	for name, gen := range shapes {
		for _, cfg := range []struct {
			n, b int
			eps  float64
		}{
			{200, 4, 0.1},
			{400, 8, 0.2},
			{300, 6, 0.05},
		} {
			data := gen(cfg.n)
			s, err := New(cfg.b, cfg.eps)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range data {
				s.Push(v)
			}
			opt, err := vopt.Error(data, cfg.b)
			if err != nil {
				t.Fatal(err)
			}
			// Small additive slack absorbs float rounding when opt ~ 0.
			bound := (1+cfg.eps)*opt + 1e-6
			if got := s.ApproxError(); got > bound {
				t.Errorf("%s n=%d b=%d eps=%g: ApproxError %v exceeds (1+eps)*opt = %v",
					name, cfg.n, cfg.b, cfg.eps, got, bound)
			}
			res, err := s.Histogram()
			if err != nil {
				t.Fatal(err)
			}
			if res.SSE > bound {
				t.Errorf("%s n=%d b=%d eps=%g: extracted SSE %v exceeds %v",
					name, cfg.n, cfg.b, cfg.eps, res.SSE, bound)
			}
			if got, want := res.SSE, res.Histogram.SSE(data); math.Abs(got-want) > 1e-6*(1+want) {
				t.Errorf("%s: reported SSE %v != actual %v", name, got, want)
			}
			if res.SSE < opt-1e-6*(1+opt) {
				t.Errorf("%s: SSE %v below optimal %v — impossible", name, res.SSE, opt)
			}
		}
	}
}

// TestSpaceStaysSublinear: the number of stored endpoints must grow like
// O((B^2/eps) log n), far below the stream length.
func TestSpaceStaysSublinear(t *testing.T) {
	s, _ := New(8, 0.5)
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 15, Quantize: true})
	const n = 50000
	for i := 0; i < n; i++ {
		s.Push(g.Next())
	}
	stored := s.StoredEndpoints()
	if stored >= n/10 {
		t.Errorf("stored %d endpoints for %d points — not sublinear", stored, n)
	}
	if stored == 0 {
		t.Error("no endpoints stored")
	}
	if s.N() != n {
		t.Errorf("N = %d", s.N())
	}
}

// TestErrorMonotoneInStream: pushing more points never decreases the
// approximate whole-stream error (HERROR[.,B] is non-decreasing).
func TestErrorMonotoneInStream(t *testing.T) {
	s, _ := New(4, 0.1)
	rng := rand.New(rand.NewSource(16))
	prev := 0.0
	for i := 0; i < 500; i++ {
		s.Push(float64(rng.Intn(100)))
		cur := s.ApproxError()
		if cur < prev-1e-9 {
			t.Fatalf("step %d: error decreased %v -> %v", i, prev, cur)
		}
		prev = cur
	}
}

func TestBuildConvenience(t *testing.T) {
	data := []float64{1, 1, 1, 9, 9, 9, 4, 4, 4}
	res, err := Build(data, 3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if res.SSE != 0 {
		t.Errorf("SSE = %v, want 0: %v", res.SSE, res.Histogram)
	}
	if _, err := Build(nil, 3, 0.1); err == nil {
		t.Error("Build on empty data succeeded")
	}
}

func TestHistogramCoversWholeStream(t *testing.T) {
	s, _ := New(5, 0.2)
	for i := 0; i < 137; i++ {
		s.Push(float64(i % 17))
	}
	res, err := s.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Histogram.Validate(); err != nil {
		t.Fatal(err)
	}
	start, end := res.Histogram.Span()
	if start != 0 || end != 136 {
		t.Errorf("span [%d,%d], want [0,136]", start, end)
	}
	if res.Histogram.NumBuckets() > 5 {
		t.Errorf("buckets = %d > 5", res.Histogram.NumBuckets())
	}
}

func TestAccessors(t *testing.T) {
	s, _ := New(7, 0.3)
	if s.Buckets() != 7 || s.Epsilon() != 0.3 {
		t.Errorf("Buckets=%d Epsilon=%v", s.Buckets(), s.Epsilon())
	}
	s.PushBatch([]float64{1, 2, 3})
	if s.N() != 3 {
		t.Errorf("N after batch = %d", s.N())
	}
}

// TestPushBatchCountsLikePush: PushBatch adds its counters once per call,
// and the totals equal those of pushing the same points one at a time.
func TestPushBatchCountsLikePush(t *testing.T) {
	data := datagen.Series(datagen.NewUtilization(datagen.UtilizationConfig{Seed: 18, Quantize: true}), 1000)
	counters := []string{
		"streamhist_agglom_points_total",
		"streamhist_agglom_intervals_opened_total",
		"streamhist_agglom_interval_extensions_total",
	}
	var answers [2]float64
	var totals [2][]int64
	for i, batched := range []bool{false, true} {
		reg := obs.NewRegistry()
		s, _ := New(8, 0.1)
		s.SetRegistry(reg)
		if batched {
			for lo := 0; lo < len(data); lo += 256 {
				s.PushBatch(data[lo:min(lo+256, len(data))])
			}
		} else {
			for _, v := range data {
				s.Push(v)
			}
		}
		answers[i] = s.ApproxError()
		for _, name := range counters {
			totals[i] = append(totals[i], reg.Counter(name, "").Value())
		}
	}
	if answers[0] != answers[1] {
		t.Errorf("ApproxError %v pushed per point, %v in batches", answers[0], answers[1])
	}
	if !slices.Equal(totals[0], totals[1]) {
		t.Errorf("counters %v pushed per point, %v in batches (%v)", totals[0], totals[1], counters)
	}
	if want := int64(len(data)); totals[1][0] != want || totals[1][1]+totals[1][2] != 7*want {
		t.Errorf("counters %v, want %d points and %d queue updates", totals[1], want, 7*want)
	}
}

// TestQueueSizeBound checks the space analysis: each queue holds at most
// ~3 * log(HERROR_max)/delta intervals (the paper's hidden constant is
// "about 3").
func TestQueueSizeBound(t *testing.T) {
	const (
		b   = 6
		eps = 0.5
	)
	s, _ := New(b, eps)
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 17, Quantize: true})
	for i := 0; i < 30000; i++ {
		s.Push(g.Next())
	}
	delta := eps / (2.0 * b)
	bound := int(4*math.Log(1+s.ApproxError())/delta) + 10
	for k, size := range s.QueueSizes() {
		if size > bound {
			t.Errorf("queue %d holds %d intervals, bound %d", k+1, size, bound)
		}
		if size == 0 {
			t.Errorf("queue %d empty", k+1)
		}
	}
}
