package streamhist_test

import (
	"bytes"
	"math"
	"testing"

	"streamhist"
	"streamhist/internal/datagen"
	"streamhist/internal/fm"
	"streamhist/internal/maxerr"
	"streamhist/internal/quantile"
	"streamhist/internal/stream"
	"streamhist/internal/vhist"
)

func TestFacadeMaxError(t *testing.T) {
	data := []float64{1, 1, 1, 9, 9, 9}
	res, err := maxerr.Build(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxError != 0 {
		t.Errorf("MaxError = %v", res.MaxError)
	}
}

func TestFacadeValueHistograms(t *testing.T) {
	data := datagen.Series(datagen.NewUtilization(datagen.UtilizationConfig{Seed: 110, Quantize: true}), 5000)

	ew, err := vhist.EqualWidth(data, 20)
	if err != nil {
		t.Fatal(err)
	}
	ed, err := vhist.ExactEqualDepth(data, 20)
	if err != nil {
		t.Fatal(err)
	}
	sed, err := vhist.NewStreamingEqualDepth(20, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range data {
		sed.Push(v)
	}
	sh, err := sed.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][2]float64{{100, 400}, {0, 1000}, {250, 260}} {
		truth := vhist.ExactSelectivity(data, q[0], q[1])
		for name, h := range map[string]*vhist.VHistogram{
			"equal-width": ew, "equal-depth": ed, "streaming": sh,
		} {
			got := h.Selectivity(q[0], q[1])
			if math.Abs(got-truth) > 0.12 {
				t.Errorf("%s [%v,%v]: selectivity %v vs truth %v", name, q[0], q[1], got, truth)
			}
		}
	}
}

func TestFacadeFMSketch(t *testing.T) {
	s, err := fm.New(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		s.Add(uint64(i % 2000))
	}
	est := s.Estimate()
	if est < 1000 || est > 4000 {
		t.Errorf("distinct estimate %v for 2000 true", est)
	}
}

func TestFacadeStreamIO(t *testing.T) {
	values := []float64{1, 2.5, -3}
	var buf bytes.Buffer
	if err := stream.Write(&buf, values); err != nil {
		t.Fatal(err)
	}
	got, err := stream.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1] != 2.5 {
		t.Errorf("roundtrip = %v", got)
	}

	// Single pass feeding three summaries through a tee.
	agg, _ := streamhist.NewAgglomerative(4, 0.5)
	var counter stream.Counter
	gk, _ := quantile.NewGK(0.1)
	tee := stream.Tee{
		stream.ConsumerFunc(agg.Push),
		&counter,
		stream.ConsumerFunc(gk.Insert),
	}
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 111, Quantize: true})
	for i := 0; i < 1000; i++ {
		tee.Push(g.Next())
	}
	if agg.N() != 1000 || counter.N != 1000 || gk.N() != 1000 {
		t.Errorf("tee counts: %d %d %d", agg.N(), counter.N, gk.N())
	}
}
