package streamhist_test

import (
	"math"
	"sync"
	"testing"

	"streamhist"
	"streamhist/internal/datagen"
)

func TestConcurrentFixedWindowSingleThreadMatchesPlain(t *testing.T) {
	cf, err := streamhist.NewFixedWindow(64, 6, 0.2, streamhist.WithConcurrency(), streamhist.WithDelta(0.2))
	if err != nil {
		t.Fatal(err)
	}
	fw, err := streamhist.NewFixedWindow(64, 6, 0.2, streamhist.WithDelta(0.2))
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 100, Quantize: true})
	for i := 0; i < 200; i++ {
		v := g.Next()
		cf.Push(v)
		fw.Push(v)
	}
	if a, b := cf.ApproxError(), fw.ApproxError(); a != b {
		t.Errorf("errors differ: %v vs %v", a, b)
	}
	ch, err := cf.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	ph, err := fw.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if ch.SSE != ph.SSE {
		t.Errorf("SSE differ: %v vs %v", ch.SSE, ph.SSE)
	}
	if cf.Len() != fw.Len() || cf.Seen() != fw.Seen() || cf.WindowStart() != fw.WindowStart() {
		t.Error("accessor mismatch")
	}
}

// TestConcurrentFixedWindowRace hammers a WithConcurrency maintainer from
// producer and consumer goroutines, mutating the histogram copies it
// returns; run with -race to exercise the synchronization.
func TestConcurrentFixedWindowRace(t *testing.T) {
	cf, err := streamhist.NewFixedWindow(128, 4, 0.5, streamhist.WithConcurrency(), streamhist.WithDelta(0.5))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 101, Quantize: true})
		for i := 0; i < 500; i++ {
			cf.Push(g.Next())
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			cf.PushBatch([]float64{1, 2, 3})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			if res, err := cf.Histogram(); err == nil {
				// Mutating the returned copy must be safe.
				if len(res.Histogram.Buckets) > 0 {
					res.Histogram.Buckets[0].Value = math.Inf(1)
				}
			}
			_ = cf.ApproxError()
			_ = cf.Window()
		}
	}()
	wg.Wait()
	if cf.Seen() != 500+200*3 {
		t.Errorf("Seen = %d", cf.Seen())
	}
}

func TestPushBatchMatchesPushLazy(t *testing.T) {
	a, _ := streamhist.NewFixedWindow(32, 4, 0.3, streamhist.WithDelta(0.3))
	b, _ := streamhist.NewFixedWindow(32, 4, 0.3, streamhist.WithDelta(0.3))
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
