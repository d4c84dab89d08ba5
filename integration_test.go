package streamhist_test

import (
	"bytes"
	"math"
	"testing"

	"streamhist"
	"streamhist/internal/datagen"
	"streamhist/internal/quantile"
	"streamhist/internal/query"
	"streamhist/internal/stream"
	"streamhist/internal/vhist"
)

// TestPipelineStreamToSummaries drives the full ingestion pipeline: a
// generated trace is serialized to the text stream format, re-parsed, and
// fed in a single pass through a tee into a fixed-window histogram, an
// agglomerative summary, a streaming equi-depth value histogram and a GK
// summary; each is then checked against exact answers computed from the
// retained copy.
func TestPipelineStreamToSummaries(t *testing.T) {
	const n = 6000
	data := datagen.Series(datagen.NewUtilization(datagen.UtilizationConfig{Seed: 150, Quantize: true}), n)

	var buf bytes.Buffer
	if err := stream.Write(&buf, data); err != nil {
		t.Fatal(err)
	}
	parsed, err := stream.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != n {
		t.Fatalf("parsed %d values", len(parsed))
	}

	fw, err := streamhist.NewFixedWindow(512, 8, 0.1, streamhist.WithDelta(0.1))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := streamhist.NewAgglomerative(8, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sed, err := vhist.NewStreamingEqualDepth(16, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	gk, err := quantile.NewGK(0.01)
	if err != nil {
		t.Fatal(err)
	}
	tee := stream.Tee{
		stream.ConsumerFunc(fw.PushLazy),
		stream.ConsumerFunc(agg.Push),
		stream.ConsumerFunc(sed.Push),
		stream.ConsumerFunc(gk.Insert),
	}
	for _, v := range parsed {
		tee.Push(v)
	}

	// Fixed window: range sums over the last 512 points.
	res, err := fw.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	win := data[n-512:]
	queries, err := query.RandomRanges(151, 200, len(win))
	if err != nil {
		t.Fatal(err)
	}
	m := query.Evaluate(res.Histogram, win, queries)
	if m.MRE > 0.2 {
		t.Errorf("fixed-window MRE %v too high", m.MRE)
	}

	// Agglomerative: whole-stream range sums.
	aggRes, err := agg.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	wholeQueries, err := query.RandomRanges(152, 200, n)
	if err != nil {
		t.Fatal(err)
	}
	am := query.Evaluate(aggRes.Histogram, data, wholeQueries)
	if am.MRE > 0.5 {
		t.Errorf("agglomerative MRE %v too high", am.MRE)
	}

	// Value histogram: selectivities.
	vh, err := sed.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][2]float64{{0, 250}, {400, 600}} {
		got := vh.Selectivity(q[0], q[1])
		want := vhist.ExactSelectivity(data, q[0], q[1])
		if math.Abs(got-want) > 0.1 {
			t.Errorf("selectivity [%v,%v]: %v vs %v", q[0], q[1], got, want)
		}
	}

	// Quantiles.
	med, err := gk.Query(0.5)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), data...)
	sortFloats(sorted)
	trueMed := sorted[n/2]
	rank := 0
	for _, v := range data {
		if v <= med {
			rank++
		}
	}
	if math.Abs(float64(rank)-float64(n)/2) > 0.02*float64(n) {
		t.Errorf("GK median %v (rank %d) vs true %v", med, rank, trueMed)
	}
}

func sortFloats(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// TestSnapshotThroughFacade persists both streaming summaries mid-stream
// and verifies the restored instances continue identically — the restart
// recovery story end to end.
func TestSnapshotThroughFacade(t *testing.T) {
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 153, Quantize: true})
	m, _ := streamhist.NewFixedWindow(128, 6, 0.2, streamhist.WithDelta(0.2))
	fw := m.FixedWindow()
	agg, _ := streamhist.NewAgglomerative(6, 0.2)
	for i := 0; i < 1000; i++ {
		v := g.Next()
		fw.Push(v)
		agg.Push(v)
	}
	fwBlob, err := fw.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	aggBlob, err := agg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	var fw2 streamhist.FixedWindow
	if err := fw2.UnmarshalBinary(fwBlob); err != nil {
		t.Fatal(err)
	}
	var agg2 streamhist.Agglomerative
	if err := agg2.UnmarshalBinary(aggBlob); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		v := g.Next()
		fw.Push(v)
		fw2.Push(v)
		agg.Push(v)
		agg2.Push(v)
	}
	if fw.ApproxError() != fw2.ApproxError() {
		t.Error("fixed-window diverged after restore")
	}
	if agg.ApproxError() != agg2.ApproxError() {
		t.Error("agglomerative diverged after restore")
	}
}
