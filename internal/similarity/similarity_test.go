package similarity

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"streamhist/internal/apca"
	"streamhist/internal/datagen"
	"streamhist/internal/histogram"
	"streamhist/internal/prefix"
	"streamhist/internal/vopt"
)

func voptBuilder(series []float64, b int) (*histogram.Histogram, error) {
	res, err := vopt.Build(series, b)
	if err != nil {
		return nil, err
	}
	return res.Histogram, nil
}

func makeFamily(t *testing.T, count, length int, seed int64) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	base := datagen.Series(datagen.NewUtilization(datagen.UtilizationConfig{Seed: seed}), length)
	out := make([][]float64, count)
	for i := range out {
		s := make([]float64, length)
		scale := 0.5 + rng.Float64()
		for j := range s {
			s[j] = base[j]*scale + rng.NormFloat64()*20
		}
		out[i] = s
	}
	return out
}

func TestEuclidean(t *testing.T) {
	d, err := Euclidean([]float64{0, 0}, []float64{3, 4})
	if err != nil || d != 5 {
		t.Errorf("Euclidean = %v, %v", d, err)
	}
	if _, err := Euclidean([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

// TestLowerBoundIsLowerBound is the indexing correctness property: for any
// series S approximated by a piecewise-constant summary h with mean
// values, LowerBound(Q, h) <= Euclidean(Q, S) for every query Q.
func TestLowerBoundIsLowerBound(t *testing.T) {
	series := makeFamily(t, 12, 64, 40)
	queries := makeFamily(t, 6, 64, 41)
	for _, builder := range []struct {
		name string
		b    Builder
	}{
		{"vopt", voptBuilder},
		{"apca", apca.Build},
	} {
		for _, s := range series {
			h, err := builder.b(s, 6)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				qs := prefix.NewSums(q)
				lb, err := LowerBound(qs, h)
				if err != nil {
					t.Fatal(err)
				}
				d, err := Euclidean(q, s)
				if err != nil {
					t.Fatal(err)
				}
				if lb > d+1e-6*(1+d) {
					t.Fatalf("%s: lower bound %v exceeds true distance %v", builder.name, lb, d)
				}
			}
		}
	}
}

func TestLowerBoundSpanMismatch(t *testing.T) {
	h := &histogram.Histogram{Buckets: []histogram.Bucket{{Start: 0, End: 3, Value: 1}}}
	qs := prefix.NewSums([]float64{1, 2})
	if _, err := LowerBound(qs, h); err == nil {
		t.Error("span mismatch accepted")
	}
}

func TestNewIndexRejectsEmpty(t *testing.T) {
	if _, err := NewIndex(nil, 4, voptBuilder); err == nil {
		t.Error("empty collection accepted")
	}
}

// TestRangeQueryNoFalseDismissals: filtering with a valid lower bound can
// produce false positives but never false dismissals.
func TestRangeQueryNoFalseDismissals(t *testing.T) {
	series := makeFamily(t, 20, 64, 42)
	queries := makeFamily(t, 8, 64, 43)
	for _, builder := range []struct {
		name string
		b    Builder
	}{
		{"vopt", voptBuilder},
		{"apca", apca.Build},
	} {
		idx, err := NewIndex(series, 5, builder.b)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			for _, radius := range []float64{50, 200, 800, 3000} {
				res, err := idx.RangeQuery(q, radius)
				if err != nil {
					t.Fatal(err)
				}
				if res.FalseDismissed != 0 {
					t.Fatalf("%s radius %v: %d false dismissals", builder.name, radius, res.FalseDismissed)
				}
				if len(res.Candidates) < len(res.Matches) {
					t.Fatalf("%s radius %v: fewer candidates (%d) than matches (%d)",
						builder.name, radius, len(res.Candidates), len(res.Matches))
				}
				if res.FalsePositives != len(res.Candidates)-len(res.Matches) {
					t.Fatalf("%s radius %v: FP accounting wrong: %+v", builder.name, radius, res)
				}
			}
		}
		// An indexed series matches itself at radius 0.
		res, err := idx.RangeQuery(series[3], 0)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(res.Matches, 3) {
			t.Errorf("%s: series 3 does not match itself: %+v", builder.name, res)
		}
	}
}

func TestNearestNeighborMatchesBruteForce(t *testing.T) {
	series := makeFamily(t, 25, 48, 44)
	idx, err := NewIndex(series, 6, voptBuilder)
	if err != nil {
		t.Fatal(err)
	}
	queries := makeFamily(t, 5, 48, 45)
	for _, q := range queries {
		best, dist, exact, err := idx.NearestNeighbor(q)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force.
		bfBest, bfDist := -1, math.Inf(1)
		for i, s := range series {
			d, _ := Euclidean(q, s)
			if d < bfDist {
				bfDist = d
				bfBest = i
			}
		}
		if math.Abs(dist-bfDist) > 1e-9*(1+bfDist) {
			t.Fatalf("NN distance %v != brute force %v (idx %d vs %d)", dist, bfDist, best, bfBest)
		}
		if exact < 1 || exact > len(series) {
			t.Fatalf("exact computations = %d", exact)
		}
	}
}

func TestSlidingSubsequences(t *testing.T) {
	series := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	subs, err := SlidingSubsequences(series, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 3 {
		t.Fatalf("got %d subsequences", len(subs))
	}
	if subs[1][0] != 2 || subs[2][3] != 7 {
		t.Errorf("subsequences wrong: %v", subs)
	}
	// Mutating a subsequence must not touch the source.
	subs[0][0] = 99
	if series[0] != 0 {
		t.Error("subsequence aliases source")
	}
	if _, err := SlidingSubsequences(series, 0, 1); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := SlidingSubsequences(series, 9, 1); err == nil {
		t.Error("overlong subsequence accepted")
	}
	if _, err := SlidingSubsequences(series, 4, 0); err == nil {
		t.Error("zero stride accepted")
	}
}

// Property: the lower bound of a series against its own approximation
// never exceeds its own SSE-derived distance (sqrt of the SSE).
func TestQuickSelfLowerBound(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = 0
			}
			raw[i] = math.Mod(raw[i], 1000)
		}
		h, err := voptBuilder(raw, 4)
		if err != nil {
			return false
		}
		qs := prefix.NewSums(raw)
		lb, err := LowerBound(qs, h)
		if err != nil {
			return false
		}
		// Distance from raw to its own approximation is sqrt(SSE); the
		// projected lower bound of a series against its own summary is 0
		// (query means over segments equal the stored means).
		return lb <= 1e-6*(1+math.Sqrt(h.SSE(raw)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
