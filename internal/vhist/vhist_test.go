package vhist

import (
	"math"
	"math/rand"
	"testing"

	"streamhist/internal/datagen"
)

func TestEqualWidthRejectsBadArgs(t *testing.T) {
	if _, err := EqualWidth(nil, 4); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := EqualWidth([]float64{1}, 0); err == nil {
		t.Error("zero buckets accepted")
	}
}

func TestEqualWidthCounts(t *testing.T) {
	data := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	h, err := EqualWidth(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumBuckets() != 2 {
		t.Fatalf("buckets = %d", h.NumBuckets())
	}
	if h.Total() != 10 {
		t.Errorf("total = %v", h.Total())
	}
	// [0,4.5) holds 0..4, [4.5,9] holds 5..9.
	if h.Buckets()[0].Count != 5 || h.Buckets()[1].Count != 5 {
		t.Errorf("counts = %+v", h.Buckets())
	}
}

func TestEqualWidthConstantData(t *testing.T) {
	h, err := EqualWidth([]float64{7, 7, 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumBuckets() != 1 {
		t.Fatalf("buckets = %d", h.NumBuckets())
	}
	if got := h.EstimateCount(6, 8); got != 3 {
		t.Errorf("EstimateCount = %v, want 3", got)
	}
	if got := h.EstimateCount(8, 9); got != 0 {
		t.Errorf("miss count = %v", got)
	}
}

func TestEstimateCountFullRange(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	data := make([]float64, 500)
	for i := range data {
		data[i] = rng.Float64() * 100
	}
	h, err := EqualWidth(data, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.EstimateCount(-10, 200); math.Abs(got-500) > 1e-6 {
		t.Errorf("full-range count = %v, want 500", got)
	}
	if got := h.Selectivity(-10, 200); math.Abs(got-1) > 1e-9 {
		t.Errorf("full selectivity = %v", got)
	}
}

func TestSelectivityAccuracyUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	data := make([]float64, 20000)
	for i := range data {
		data[i] = rng.Float64() * 1000
	}
	h, err := EqualWidth(data, 50)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		lo := rng.Float64() * 900
		hi := lo + rng.Float64()*(1000-lo)
		got := h.Selectivity(lo, hi)
		want := ExactSelectivity(data, lo, hi)
		if math.Abs(got-want) > 0.05 {
			t.Fatalf("[%v,%v]: selectivity %v, exact %v", lo, hi, got, want)
		}
	}
}

func TestStreamingEqualDepthRejectsBadArgs(t *testing.T) {
	if _, err := NewStreamingEqualDepth(0, 0.01); err == nil {
		t.Error("zero buckets accepted")
	}
	if _, err := NewStreamingEqualDepth(4, 0); err == nil {
		t.Error("zero eps accepted")
	}
	s, _ := NewStreamingEqualDepth(4, 0.01)
	if _, err := s.Histogram(); err == nil {
		t.Error("histogram of empty stream accepted")
	}
}

func TestStreamingEqualDepthBalancedDepths(t *testing.T) {
	s, err := NewStreamingEqualDepth(10, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(82))
	const n = 50000
	for i := 0; i < n; i++ {
		s.Push(rng.NormFloat64() * 100)
	}
	if s.N() != n {
		t.Fatalf("N = %d", s.N())
	}
	if s.Space() >= n/20 {
		t.Errorf("summary space %d not sublinear", s.Space())
	}
	h, err := s.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if h.NumBuckets() > 10 {
		t.Errorf("buckets = %d", h.NumBuckets())
	}
	total := 0.0
	for _, b := range h.Buckets() {
		total += b.Count
	}
	if math.Abs(total-n) > 1 {
		t.Errorf("counts sum to %v, want %v", total, float64(n))
	}
}

func TestStreamingMatchesExactEqualDepth(t *testing.T) {
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 83, Quantize: true})
	data := datagen.Series(g, 20000)
	s, err := NewStreamingEqualDepth(10, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range data {
		s.Push(v)
	}
	stream, err := s.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactEqualDepth(data, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Selectivity estimates from the streaming histogram must track the
	// exact equi-depth histogram closely.
	rng := rand.New(rand.NewSource(84))
	for trial := 0; trial < 100; trial++ {
		lo := rng.Float64() * 800
		hi := lo + rng.Float64()*(1000-lo)
		se := stream.Selectivity(lo, hi)
		ee := exact.Selectivity(lo, hi)
		truth := ExactSelectivity(data, lo, hi)
		if math.Abs(se-truth) > math.Abs(ee-truth)+0.1 {
			t.Fatalf("[%v,%v]: streaming %v vs exact-ed %v vs truth %v", lo, hi, se, ee, truth)
		}
	}
}

func TestHeavyHitterMergesBuckets(t *testing.T) {
	// 90% of the stream is the single value 42: quantile edges collapse
	// and the snapshot must merge them instead of emitting empty buckets.
	s, err := NewStreamingEqualDepth(10, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(85))
	const n = 10000
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.9 {
			s.Push(42)
		} else {
			s.Push(rng.Float64() * 100)
		}
	}
	h, err := s.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(h.Buckets()); i++ {
		if h.Buckets()[i].Hi < h.Buckets()[i].Lo {
			t.Fatalf("inverted bucket %+v", h.Buckets()[i])
		}
	}
	// The heavy value must account for the bulk of the mass around it.
	got := h.Selectivity(41.5, 42.5)
	if got < 0.7 {
		t.Errorf("heavy-hitter selectivity %v, want >= 0.7", got)
	}
}

func TestExactEqualDepth(t *testing.T) {
	if _, err := ExactEqualDepth(nil, 3); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := ExactEqualDepth([]float64{1}, 0); err == nil {
		t.Error("zero buckets accepted")
	}
	data := []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 0}
	h, err := ExactEqualDepth(data, 5)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumBuckets() != 5 {
		t.Fatalf("buckets = %d", h.NumBuckets())
	}
	for _, b := range h.Buckets() {
		if b.Count != 2 {
			t.Errorf("bucket %+v depth != 2", b)
		}
	}
}

func TestExactSelectivityEdgeCases(t *testing.T) {
	if got := ExactSelectivity(nil, 0, 1); got != 0 {
		t.Errorf("empty = %v", got)
	}
	data := []float64{1, 2, 3}
	if got := ExactSelectivity(data, 2, 2); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("point selectivity = %v", got)
	}
	if got := ExactSelectivity(data, 5, 9); got != 0 {
		t.Errorf("miss = %v", got)
	}
}

// BenchmarkStreamingEqualDepthPush measures streaming equi-depth
// maintenance per point.
func BenchmarkStreamingEqualDepthPush(b *testing.B) {
	s, err := NewStreamingEqualDepth(32, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 22})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(g.Next())
	}
}

// selectivitySink keeps benchmarked estimates observable.
var selectivitySink float64

// BenchmarkSelectivity measures one BETWEEN-predicate estimate.
func BenchmarkSelectivity(b *testing.B) {
	data := datagen.Series(datagen.NewUtilization(datagen.UtilizationConfig{Seed: 23, Quantize: true}), 20000)
	h, err := EqualWidth(data, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		selectivitySink = h.Selectivity(float64(i%500), float64(500+i%500))
	}
}
