package server

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// BenchmarkIngestEndpoint measures a full POST /ingest round trip with a
// 1024-line body. The request/recorder harness and the JSON response
// account for a small fixed allocation count per request; line parsing
// itself is allocation-free (pooled scratch + stream.ParseFloatBytes),
// which this benchmark pins by staying well under one allocation per
// ingested line.
func BenchmarkIngestEndpoint(b *testing.B) {
	s, err := New(4096, 8, 0.2, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	var payload bytes.Buffer
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1024; i++ {
		payload.WriteString(strconv.FormatFloat(float64(rng.Intn(10000))/100, 'g', -1, 64))
		payload.WriteByte('\n')
	}
	rd := bytes.NewReader(payload.Bytes())
	req := httptest.NewRequest(http.MethodPost, "/v1/streams/default/ingest", io.NopCloser(rd))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Seek(0, 0)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1024, "ns/line")
}

// TestShardFlatness holds multi-tenant routing flat: the p99 latency of a
// one-point ingest through the full handler chain (parse, admission,
// shard hand-off, apply, JSON reply) may grow at most 5x from 1k to 100k
// live streams. A stream is routed by a hash and found in a map, so the
// two servers do the same work per request; a per-request cost that grows
// with the number of streams shows up as a ratio far above 5. Both
// servers run min(NumCPU, 4) shards, and their samples alternate, so a
// change in the machine's speed reaches both sides alike.
//
// The 100k streams hold about 0.5 GB of heap. The race detector would
// multiply that several times over and time its own bookkeeping, so the
// gate runs only in builds without it.
func TestShardFlatness(t *testing.T) {
	if raceEnabled {
		t.Skip("the 100k-stream heap is too large under the race detector")
	}
	const (
		budget  = 5.0
		samples = 2000
	)
	shards := min(runtime.NumCPU(), 4)
	seeded := func(keys int) (*Server, []string) {
		s, err := Open(Options{Window: 64, Buckets: 4, Eps: 0.2, Delta: 0.2, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		names := make([]string, keys)
		one := []float64{1}
		for i := range names {
			names[i] = "k" + strconv.Itoa(i)
			if _, _, err := s.eng.Ingest(names[i], 0, one); err != nil {
				t.Fatal(err)
			}
		}
		return s, names
	}
	small, smallKeys := seeded(1000)
	large, largeKeys := seeded(100000)
	ingest := func(s *Server, key string) time.Duration {
		start := time.Now()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/streams/"+key+"/ingest", strings.NewReader("2\n")))
		took := time.Since(start)
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest %s: %d %s", key, rec.Code, rec.Body)
		}
		return took
	}
	// Collect the setup's garbage now and warm the measured path, so the
	// samples see steady state.
	runtime.GC()
	for i := 0; i < 200; i++ {
		ingest(small, smallKeys[i%len(smallKeys)])
		ingest(large, largeKeys[i%len(largeKeys)])
	}
	smallLat := make([]time.Duration, samples)
	largeLat := make([]time.Duration, samples)
	for i := 0; i < samples; i++ {
		smallLat[i] = ingest(small, smallKeys[i%len(smallKeys)])
		largeLat[i] = ingest(large, largeKeys[i%len(largeKeys)])
	}
	p99 := func(lat []time.Duration) time.Duration {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)*99/100]
	}
	ps, pl := p99(smallLat), p99(largeLat)
	ratio := float64(pl) / float64(ps)
	t.Logf("shards=%d: ingest p99 %v at 1k streams, %v at 100k (x%.2f, budget x%.0f)", shards, ps, pl, ratio, budget)
	if ratio > budget {
		t.Errorf("ingest p99 grows x%.2f from 1k to 100k streams (%v to %v), budget x%.0f", ratio, ps, pl, budget)
	}
}
