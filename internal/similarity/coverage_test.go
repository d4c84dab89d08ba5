package similarity

import (
	"testing"

	"streamhist/internal/histogram"
)

func TestIndexAccessors(t *testing.T) {
	series := [][]float64{{1, 2, 3, 4}, {4, 3, 2, 1}}
	idx, err := NewIndex(series, 2, voptBuilder)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 2 {
		t.Errorf("Len = %d", idx.Len())
	}
	h := idx.Approximation(0)
	if h == nil || h.NumBuckets() > 2 {
		t.Errorf("Approximation(0) = %v", h)
	}
}

func TestNewIndexBuilderErrors(t *testing.T) {
	failing := func(s []float64, b int) (*histogram.Histogram, error) {
		return nil, errTest
	}
	if _, err := NewIndex([][]float64{{1, 2}}, 2, failing); err == nil {
		t.Error("builder error swallowed")
	}
	invalid := func(s []float64, b int) (*histogram.Histogram, error) {
		return &histogram.Histogram{}, nil
	}
	if _, err := NewIndex([][]float64{{1, 2}}, 2, invalid); err == nil {
		t.Error("invalid approximation accepted")
	}
}

var errTest = errString("test error")

type errString string

func (e errString) Error() string { return string(e) }

func TestRangeQueryLengthMismatch(t *testing.T) {
	series := [][]float64{{1, 2, 3, 4}}
	idx, err := NewIndex(series, 2, voptBuilder)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.RangeQuery([]float64{1, 2}, 5); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, _, err := idx.NearestNeighbor([]float64{1}); err == nil {
		t.Error("NN length mismatch accepted")
	}
}

func TestNearestNeighborSingleton(t *testing.T) {
	series := [][]float64{{5, 5, 5, 5}}
	idx, err := NewIndex(series, 1, voptBuilder)
	if err != nil {
		t.Fatal(err)
	}
	best, dist, verified, err := idx.NearestNeighbor([]float64{5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if best != 0 || dist != 0 || verified != 1 {
		t.Errorf("best=%d dist=%v verified=%d", best, dist, verified)
	}
}
