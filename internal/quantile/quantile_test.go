package quantile

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewGKRejectsBadEps(t *testing.T) {
	for _, eps := range []float64{0, -0.1, 1, 2} {
		if _, err := NewGK(eps); err == nil {
			t.Errorf("eps=%g accepted", eps)
		}
	}
}

func TestGKEmptyQuery(t *testing.T) {
	s, _ := NewGK(0.1)
	if _, err := s.Query(0.5); err == nil {
		t.Error("query on empty summary succeeded")
	}
}

func TestGKSmallExact(t *testing.T) {
	s, _ := NewGK(0.1)
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Insert(v)
	}
	if v, err := s.Query(0); err != nil || v != 1 {
		t.Errorf("min = %v, %v", v, err)
	}
	if v, err := s.Query(1); err != nil || v != 5 {
		t.Errorf("max = %v, %v", v, err)
	}
}

// TestGKRankGuarantee is the Greenwald-Khanna correctness claim: the
// returned value's rank is within eps*n of the requested rank.
func TestGKRankGuarantee(t *testing.T) {
	for _, eps := range []float64{0.1, 0.05, 0.01} {
		for _, n := range []int{100, 1000, 20000} {
			rng := rand.New(rand.NewSource(int64(n) + int64(eps*1000)))
			s, err := NewGK(eps)
			if err != nil {
				t.Fatal(err)
			}
			data := make([]float64, n)
			for i := range data {
				data[i] = rng.Float64() * 1e6
			}
			for _, v := range data {
				s.Insert(v)
			}
			sorted := make([]float64, n)
			copy(sorted, data)
			sort.Float64s(sorted)
			for _, phi := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1} {
				got, err := s.Query(phi)
				if err != nil {
					t.Fatal(err)
				}
				targetRank := int(math.Ceil(phi * float64(n)))
				if targetRank < 1 {
					targetRank = 1
				}
				rank := sort.SearchFloat64s(sorted, got) + 1
				slack := int(eps*float64(n)) + 1
				if d := rank - targetRank; d > slack || d < -slack {
					t.Errorf("eps=%g n=%d phi=%g: rank %d, target %d (slack %d)",
						eps, n, phi, rank, targetRank, slack)
				}
			}
		}
	}
}

// TestGKSpaceSublinear: the summary must stay far smaller than the stream.
func TestGKSpaceSublinear(t *testing.T) {
	s, _ := NewGK(0.01)
	rng := rand.New(rand.NewSource(36))
	const n = 100000
	for i := 0; i < n; i++ {
		s.Insert(rng.Float64())
	}
	if s.Size() >= n/20 {
		t.Errorf("summary holds %d tuples for %d inserts", s.Size(), n)
	}
	if s.N() != n {
		t.Errorf("N = %d", s.N())
	}
}

func TestGKSortedAndReversedInputs(t *testing.T) {
	for name, gen := range map[string]func(i, n int) float64{
		"ascending":  func(i, n int) float64 { return float64(i) },
		"descending": func(i, n int) float64 { return float64(n - i) },
		"constant":   func(i, n int) float64 { return 7 },
	} {
		const n = 5000
		s, _ := NewGK(0.05)
		for i := 0; i < n; i++ {
			s.Insert(gen(i, n))
		}
		v, err := s.Query(0.5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "constant" && v != 7 {
			t.Errorf("constant median = %v", v)
		}
		if name == "ascending" {
			if math.Abs(v-n/2) > 0.05*n+1 {
				t.Errorf("ascending median = %v", v)
			}
		}
	}
}

func TestQuickGKWithinRange(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		s, err := NewGK(0.1)
		if err != nil {
			return false
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			s.Insert(v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		for _, phi := range []float64{0, 0.5, 1} {
			v, err := s.Query(phi)
			if err != nil {
				return false
			}
			if v < lo || v > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestExactQuantileAndRankOf(t *testing.T) {
	data := []float64{10, 20, 30, 40}
	if v := ExactQuantile(data, 0.5); v != 20 {
		t.Errorf("median = %v", v)
	}
	if v := ExactQuantile(data, 0); v != 10 {
		t.Errorf("min = %v", v)
	}
	if v := ExactQuantile(data, 1); v != 40 {
		t.Errorf("max = %v", v)
	}
	if v := ExactQuantile(nil, 0.5); v != 0 {
		t.Errorf("empty = %v", v)
	}
	if r := RankOf(data, 25); r != 2 {
		t.Errorf("RankOf = %d", r)
	}
}

func TestGKQuantilesBatch(t *testing.T) {
	s, _ := NewGK(0.05)
	for i := 1; i <= 100; i++ {
		s.Insert(float64(i))
	}
	vs, err := s.Quantiles([]float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 || vs[0] > vs[1] || vs[1] > vs[2] {
		t.Errorf("quantiles = %v", vs)
	}
	empty, _ := NewGK(0.05)
	if _, err := empty.Quantiles([]float64{0.5}); err == nil {
		t.Error("batch query on empty summary succeeded")
	}
}

func TestGKQueryClampsPhi(t *testing.T) {
	s, _ := NewGK(0.1)
	for i := 1; i <= 50; i++ {
		s.Insert(float64(i))
	}
	lo, err := s.Query(-0.5)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := s.Query(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if lo > hi {
		t.Errorf("clamped queries inverted: %v > %v", lo, hi)
	}
}

func TestExactQuantileClamps(t *testing.T) {
	data := []float64{3, 1, 2}
	if v := ExactQuantile(data, -1); v != 1 {
		t.Errorf("phi<0 = %v", v)
	}
	if v := ExactQuantile(data, 2); v != 3 {
		t.Errorf("phi>1 = %v", v)
	}
}
