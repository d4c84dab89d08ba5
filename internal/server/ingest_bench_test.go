package server

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
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
