package streamhist_test

import (
	"math"
	"testing"

	"streamhist"
	"streamhist/internal/apca"
	"streamhist/internal/datagen"
	"streamhist/internal/histogram"
	"streamhist/internal/quantile"
	"streamhist/internal/query"
	"streamhist/internal/similarity"
	"streamhist/internal/wavelet"
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

func TestFacadeBaselines(t *testing.T) {
	data := datagen.Series(datagen.NewUtilization(datagen.UtilizationConfig{Seed: 3, Quantize: true}), 256)

	wav, err := wavelet.Build(data, 16)
	if err != nil {
		t.Fatal(err)
	}
	coeffs, err := wavelet.Transform(data)
	if err != nil {
		t.Fatal(err)
	}
	rec := wavelet.Inverse(coeffs)
	for i, v := range data {
		if math.Abs(rec[i]-v) > 1e-6 {
			t.Fatalf("Haar roundtrip broke at %d", i)
		}
	}
	if wav.Len() != len(data) {
		t.Errorf("wavelet Len = %d", wav.Len())
	}

	for name, build := range map[string]func([]float64, int) (*streamhist.Histogram, error){
		"apca":        apca.Build,
		"equal-width": histogram.EqualWidth,
		"equal-depth": histogram.EqualDepth,
		"end-biased":  histogram.EndBiased,
	} {
		h, err := build(data, 16)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	h, err := histogram.New(data, []int{99, 255})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := h.SSE(data), histogram.TotalSSE(data, []int{99, 255}); math.Abs(got-want) > 1e-6*(1+want) {
		t.Errorf("SSE %v != TotalSSE %v", got, want)
	}
}

func TestFacadeQuantiles(t *testing.T) {
	gk, err := quantile.NewGK(0.05)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 1000; i++ {
		gk.Insert(float64(i))
	}
	med, err := gk.Query(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if med < 400 || med > 600 {
		t.Errorf("GK median %v", med)
	}
}

func TestFacadeWorkload(t *testing.T) {
	data := datagen.Series(datagen.NewUtilization(datagen.UtilizationConfig{Seed: 5}), 200)
	queries, err := query.RandomRanges(6, 50, len(data))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := streamhist.Optimal(data, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := query.Evaluate(opt.Histogram, data, queries)
	if m.Count != 50 {
		t.Errorf("Count = %d", m.Count)
	}
	if m.MAE < 0 || m.RMSE < m.MAE {
		t.Errorf("metric sanity: %+v", m)
	}
}

func TestFacadeGenerators(t *testing.T) {
	gens := map[string]func() (datagen.Generator, error){
		"walk":    func() (datagen.Generator, error) { return datagen.NewRandomWalk(7, 50, 5, 0, 100, true) },
		"steps":   func() (datagen.Generator, error) { return datagen.NewStepSignal(8, 20, 0, 50, 2, false) },
		"zipf":    func() (datagen.Generator, error) { return datagen.NewZipf(9, 1.5, 100) },
		"mixture": func() (datagen.Generator, error) { return datagen.NewGaussianMixture(10, 3, 0, 100, 5) },
	}
	for name, mk := range gens {
		g, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := datagen.Series(g, 50)
		if len(s) != 50 {
			t.Fatalf("%s: %d values", name, len(s))
		}
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

func TestFacadeDeltaVariant(t *testing.T) {
	fw, err := streamhist.NewFixedWindow(64, 4, 0.5, streamhist.WithDelta(0.5))
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
