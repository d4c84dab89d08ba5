package drift

import (
	"math"
	"math/rand"
	"testing"

	"streamhist/internal/core"
	"streamhist/internal/datagen"
	"streamhist/internal/histogram"
	"streamhist/internal/vopt"
)

func mkHist(t *testing.T, data []float64, b int) *histogram.Histogram {
	t.Helper()
	res, err := vopt.Build(data, b)
	if err != nil {
		t.Fatal(err)
	}
	return res.Histogram
}

func TestDistancesIdenticalHistograms(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	h := mkHist(t, data, 3)
	for name, f := range map[string]func(a, b *histogram.Histogram) (float64, error){
		"L2": L2, "L1": L1, "NormalizedL2": NormalizedL2,
	} {
		d, err := f(h, h)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d != 0 {
			t.Errorf("%s(h,h) = %v", name, d)
		}
	}
}

func TestDistanceClosedFormMatchesPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(210))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(60)
		data1 := make([]float64, n)
		data2 := make([]float64, n)
		for i := range data1 {
			data1[i] = float64(rng.Intn(100))
			data2[i] = float64(rng.Intn(100))
		}
		h1 := mkHist(t, data1, 1+rng.Intn(5))
		h2 := mkHist(t, data2, 1+rng.Intn(5))
		r1 := h1.Reconstruct()
		r2 := h2.Reconstruct()
		wantL2, wantL1 := 0.0, 0.0
		for i := range r1 {
			d := r1[i] - r2[i]
			wantL2 += d * d
			wantL1 += math.Abs(d)
		}
		wantL2 = math.Sqrt(wantL2)
		gotL2, err := L2(h1, h2)
		if err != nil {
			t.Fatal(err)
		}
		gotL1, err := L1(h1, h2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gotL2-wantL2) > 1e-9*(1+wantL2) {
			t.Fatalf("trial %d: L2 %v vs pointwise %v", trial, gotL2, wantL2)
		}
		if math.Abs(gotL1-wantL1) > 1e-9*(1+wantL1) {
			t.Fatalf("trial %d: L1 %v vs pointwise %v", trial, gotL1, wantL1)
		}
	}
}

func TestDistanceSpanMismatch(t *testing.T) {
	h1 := mkHist(t, []float64{1, 2, 3}, 2)
	h2 := mkHist(t, []float64{1, 2, 3, 4}, 2)
	if _, err := L2(h1, h2); err == nil {
		t.Error("span mismatch accepted")
	}
}

func TestDetectorValidation(t *testing.T) {
	if _, err := NewDetector(0); err == nil {
		t.Error("zero threshold accepted")
	}
	d, _ := NewDetector(5)
	if _, _, err := d.Observe(&histogram.Histogram{}); err == nil {
		t.Error("invalid histogram accepted")
	}
}

func TestDetectorFirstObservationInstallsReference(t *testing.T) {
	d, _ := NewDetector(5)
	h := mkHist(t, []float64{1, 1, 1, 1}, 2)
	if d.Reference() != nil {
		t.Error("reference before first observation")
	}
	dist, drifted, err := d.Observe(h)
	if err != nil || drifted || dist != 0 {
		t.Errorf("first observation: %v %v %v", dist, drifted, err)
	}
	if d.Reference() == nil {
		t.Error("reference not installed")
	}
	if d.Checks() != 0 {
		t.Errorf("Checks = %d", d.Checks())
	}
}

// TestDetectorReanchorsOnSpanChange: while a window fills, its
// histogram's span grows between observations. A histogram of another
// span than the reference's becomes the new reference, with no check
// counted and no alarm, however different its values.
func TestDetectorReanchorsOnSpanChange(t *testing.T) {
	d, _ := NewDetector(5)
	if _, _, err := d.Observe(mkHist(t, []float64{1, 1, 1, 1}, 2)); err != nil {
		t.Fatal(err)
	}
	longer := mkHist(t, []float64{90, 90, 90, 90, 90, 90, 90, 90}, 2)
	dist, drifted, err := d.Observe(longer)
	if err != nil || drifted || dist != 0 {
		t.Fatalf("span change: dist %v drifted %v err %v, want a silent re-anchor", dist, drifted, err)
	}
	if d.Checks() != 0 || d.Alarms() != 0 {
		t.Errorf("span change counted: checks %d alarms %d", d.Checks(), d.Alarms())
	}
	if s, e := d.Reference().Span(); s != 0 || e != 7 {
		t.Errorf("reference span [%d,%d], want the new [0,7]", s, e)
	}
	// A histogram of the same span is compared against the new reference.
	if _, drifted, err := d.Observe(mkHist(t, []float64{90, 90, 90, 90, 91, 91, 91, 91}, 2)); err != nil || drifted {
		t.Fatalf("same-span observation: drifted %v err %v", drifted, err)
	}
	if d.Checks() != 1 {
		t.Errorf("Checks = %d after one comparison, want 1", d.Checks())
	}
}

// TestDetectorOnLevelShift drives a fixed-window summary through a stream
// with an abrupt level shift: the detector must stay quiet before the
// shift, alarm as it crosses the window, then settle on the new regime.
func TestDetectorOnLevelShift(t *testing.T) {
	const n = 64
	fw, err := core.NewWithDelta(n, 6, 0.2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(20)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(211))
	observe := func() (bool, error) {
		res, err := fw.Histogram()
		if err != nil {
			return false, err
		}
		_, drifted, err := det.Observe(res.Histogram)
		return drifted, err
	}
	// Quiet regime around level 100.
	for i := 0; i < 3*n; i++ {
		fw.Push(100 + rng.NormFloat64()*3)
		if i >= n && i%16 == 0 {
			drifted, err := observe()
			if err != nil {
				t.Fatal(err)
			}
			if drifted {
				t.Fatalf("false alarm at step %d", i)
			}
		}
	}
	// Level shift to 500.
	sawDrift := false
	for i := 0; i < 3*n; i++ {
		fw.Push(500 + rng.NormFloat64()*3)
		if i%16 == 0 {
			drifted, err := observe()
			if err != nil {
				t.Fatal(err)
			}
			if drifted {
				sawDrift = true
			}
		}
	}
	if !sawDrift {
		t.Fatal("level shift not detected")
	}
	if det.Alarms() == 0 {
		t.Error("alarm counter zero")
	}
	// New regime must be quiet again.
	for i := 0; i < 2*n; i++ {
		fw.Push(500 + rng.NormFloat64()*3)
		if i%16 == 0 {
			drifted, err := observe()
			if err != nil {
				t.Fatal(err)
			}
			if i > n && drifted {
				t.Fatalf("alarm after settling, step %d", i)
			}
		}
	}
}

// TestDetectorComparableAcrossBudgets: normalization makes summaries of
// different B comparable — same data, different budgets, small distance.
func TestDetectorComparableAcrossBudgets(t *testing.T) {
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 212, Quantize: true})
	data := datagen.Series(g, 128)
	h8 := mkHist(t, data, 8)
	h16 := mkHist(t, data, 16)
	d, err := NormalizedL2(h8, h16)
	if err != nil {
		t.Fatal(err)
	}
	// Both approximate the same data; their mutual RMS distance must be
	// far below the data's own spread.
	if d > 60 {
		t.Errorf("cross-budget distance %v too large", d)
	}
}
