package streamhist_test

import (
	"errors"
	"math"
	"testing"
	"time"

	"streamhist"
	"streamhist/internal/apca"
	"streamhist/internal/datagen"
	"streamhist/internal/similarity"
)

// TestFacadeEndToEnd drives the full public API the way the README
// quickstart does.
func TestFacadeEndToEnd(t *testing.T) {
	fw, err := streamhist.NewFixedWindow(128, 8, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 1, Quantize: true})
	for i := 0; i < 300; i++ {
		fw.Push(g.Next())
	}
	res, err := fw.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if res.Histogram.NumBuckets() > 8 {
		t.Errorf("bucket budget exceeded: %d", res.Histogram.NumBuckets())
	}
	win := fw.Window()
	opt, err := streamhist.OptimalError(win, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.SSE > 1.2*opt+1e-6 {
		t.Errorf("facade window SSE %v exceeds (1+eps)*opt %v", res.SSE, 1.2*opt)
	}
}

func TestFacadeAgglomerativeAndApproximate(t *testing.T) {
	data := datagen.Series(datagen.NewUtilization(datagen.UtilizationConfig{Seed: 2, Quantize: true}), 500)

	agg, err := streamhist.NewAgglomerative(8, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range data {
		agg.Push(v)
	}
	res1, err := agg.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := streamhist.Approximate(data, 8, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res1.SSE-res2.SSE) > 1e-9*(1+res1.SSE) {
		t.Errorf("incremental (%v) and one-shot (%v) agglomerative disagree", res1.SSE, res2.SSE)
	}
	opt, err := streamhist.Optimal(data, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res2.SSE > 1.1*opt.SSE+1e-6 {
		t.Errorf("Approximate SSE %v exceeds guarantee vs optimal %v", res2.SSE, opt.SSE)
	}
}

func TestFacadeDeltaVariant(t *testing.T) {
	fw, err := streamhist.NewFixedWindowWithDelta(64, 4, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		fw.Push(float64(i % 13))
	}
	if fw.Delta() != 0.5 {
		t.Errorf("Delta = %v", fw.Delta())
	}
	if _, err := fw.Histogram(); err != nil {
		t.Fatal(err)
	}
}

// TestMaintainerDefaults checks that each window constructor applies the
// documented growth factor, and the sentinel error contract.
func TestMaintainerDefaults(t *testing.T) {
	fw, err := streamhist.NewFixedWindow(32, 4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got := fw.Delta(); got != 0.2/8 {
		t.Errorf("default delta = %v, want eps/(2B)", got)
	}
	if fw.Capacity() != 32 || fw.Buckets() != 4 || fw.Epsilon() != 0.2 {
		t.Errorf("accessors: n=%d b=%d eps=%v", fw.Capacity(), fw.Buckets(), fw.Epsilon())
	}
	tw, err := streamhist.NewTimeWindow(32, 4, 0.2, 0.05, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if tw.Span() != time.Minute || tw.Capacity() != 32 || tw.Delta() != 0.05 {
		t.Errorf("time window: Span = %v, Capacity = %d, Delta = %v", tw.Span(), tw.Capacity(), tw.Delta())
	}

	for _, tc := range []struct {
		name string
		err  error
		call func() error
	}{
		{"bad epsilon", streamhist.ErrBadEpsilon, func() error {
			_, err := streamhist.NewFixedWindow(32, 4, 0)
			return err
		}},
		{"bad epsilon span", streamhist.ErrBadEpsilon, func() error {
			_, err := streamhist.NewTimeWindow(32, 4, -1, 0.1, time.Second)
			return err
		}},
		{"bad buckets", streamhist.ErrBadBuckets, func() error {
			_, err := streamhist.NewFixedWindow(32, 0, 0.2)
			return err
		}},
		{"bad window", streamhist.ErrBadWindow, func() error {
			_, err := streamhist.NewFixedWindow(0, 4, 0.2)
			return err
		}},
		{"bad span", streamhist.ErrBadSpan, func() error {
			_, err := streamhist.NewTimeWindow(32, 4, 0.2, 0.1, -time.Second)
			return err
		}},
		{"bad delta", streamhist.ErrBadDelta, func() error {
			_, err := streamhist.NewFixedWindowWithDelta(32, 4, 0.2, -1)
			return err
		}},
	} {
		err := tc.call()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !errors.Is(err, tc.err) {
			t.Errorf("%s: error %v does not wrap the sentinel", tc.name, err)
		}
	}
}

func TestPushBatchMatchesPushLazy(t *testing.T) {
	a, _ := streamhist.NewFixedWindowWithDelta(32, 4, 0.3, 0.3)
	b, _ := streamhist.NewFixedWindowWithDelta(32, 4, 0.3, 0.3)
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 102, Quantize: true})
	batch := datagen.Series(g, 100)
	a.PushBatch(batch)
	for _, v := range batch {
		b.PushLazy(v)
	}
	if x, y := a.ApproxError(), b.ApproxError(); x != y {
		t.Errorf("batch error %v != lazy error %v", x, y)
	}
}

func TestAgglomerativePushBatch(t *testing.T) {
	a, _ := streamhist.NewAgglomerative(4, 0.2)
	b, _ := streamhist.NewAgglomerative(4, 0.2)
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 103, Quantize: true})
	batch := datagen.Series(g, 200)
	a.PushBatch(batch)
	for _, v := range batch {
		b.Push(v)
	}
	if x, y := a.ApproxError(), b.ApproxError(); x != y {
		t.Errorf("batch %v != loop %v", x, y)
	}
}

func TestFacadeSimilarity(t *testing.T) {
	base := datagen.Series(datagen.NewUtilization(datagen.UtilizationConfig{Seed: 11}), 64)
	corpus := make([][]float64, 10)
	for i := range corpus {
		s := make([]float64, len(base))
		for j := range s {
			s[j] = base[j] + float64(i)*5
		}
		corpus[i] = s
	}
	idx, err := similarity.NewIndex(corpus, 4, apca.Build)
	if err != nil {
		t.Fatal(err)
	}
	res, err := idx.RangeQuery(corpus[3], 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.FalseDismissed != 0 {
		t.Errorf("false dismissals: %d", res.FalseDismissed)
	}
	found := false
	for _, m := range res.Matches {
		if m == 3 {
			found = true
		}
	}
	if !found {
		t.Error("query did not match itself")
	}
	d, err := similarity.Euclidean(corpus[0], corpus[1])
	if err != nil {
		t.Fatal(err)
	}
	want := 5 * math.Sqrt(float64(len(base)))
	if math.Abs(d-want) > 1e-6 {
		t.Errorf("Euclidean = %v, want %v", d, want)
	}
	subs, err := similarity.SlidingSubsequences(base, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 4 {
		t.Errorf("subsequences = %d", len(subs))
	}
}
