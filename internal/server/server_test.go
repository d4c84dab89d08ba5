package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"streamhist/internal/core"
	"strings"
	"sync"
	"testing"
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(64, 4, 0.2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func do(t *testing.T, h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestNewRejectsBadArgs(t *testing.T) {
	if _, err := New(0, 4, 0.1, 0.1); err == nil {
		t.Error("zero window accepted")
	}
}

func TestIngestAndHistogram(t *testing.T) {
	s := newTestServer(t)
	rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n3\n4\n5\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body)
	}
	var ing struct {
		Ingested int   `json:"ingested"`
		Seen     int64 `json:"seen"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Ingested != 5 || ing.Seen != 5 {
		t.Errorf("ingest response %+v", ing)
	}

	rec = do(t, s, http.MethodGet, "/v1/streams/default/histogram", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("histogram status %d: %s", rec.Code, rec.Body)
	}
	var hist struct {
		WindowStart int64   `json:"windowStart"`
		SSE         float64 `json:"sse"`
		Buckets     []struct {
			Start int     `json:"start"`
			End   int     `json:"end"`
			Value float64 `json:"value"`
		} `json:"buckets"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist.Buckets) == 0 || hist.Buckets[len(hist.Buckets)-1].End != 4 {
		t.Errorf("histogram %+v", hist)
	}
}

func TestQueryEndpoint(t *testing.T) {
	s := newTestServer(t)
	var lines strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&lines, "%d\n", 10)
	}
	do(t, s, http.MethodPost, "/v1/streams/default/ingest", lines.String())

	rec := do(t, s, http.MethodGet, "/v1/streams/default/query?lo=2&hi=5", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", rec.Code, rec.Body)
	}
	var q struct {
		Estimate float64 `json:"estimate"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.Estimate != 40 {
		t.Errorf("estimate = %v, want 40", q.Estimate)
	}
}

func TestQueryValidation(t *testing.T) {
	s := newTestServer(t)
	do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n")
	for _, target := range []string{
		"/v1/streams/default/query",            // missing params
		"/v1/streams/default/query?lo=a&hi=1",  // non-integer
		"/v1/streams/default/query?lo=0&hi=99", // out of window
		"/v1/streams/default/query?lo=1&hi=0",  // inverted
		"/v1/streams/default/query?lo=-1&hi=1", // negative
	} {
		if rec := do(t, s, http.MethodGet, target, ""); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d", target, rec.Code)
		}
	}
}

func TestMethodEnforcement(t *testing.T) {
	s := newTestServer(t)
	if rec := do(t, s, http.MethodGet, "/v1/streams/default/ingest", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest: %d", rec.Code)
	}
	for _, target := range []string{"/v1/streams/default/histogram", "/v1/streams/default/query?lo=0&hi=0", "/v1/streams/default/stats"} {
		if rec := do(t, s, http.MethodPost, target, "x"); rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: %d", target, rec.Code)
		}
	}
}

func TestIngestRejectsMalformed(t *testing.T) {
	s := newTestServer(t)
	if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\nnot-a-number\n"); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed ingest: %d", rec.Code)
	}
}

func TestHistogramOnEmptyStream(t *testing.T) {
	s := newTestServer(t)
	if rec := do(t, s, http.MethodGet, "/v1/streams/default/histogram", ""); rec.Code != http.StatusConflict {
		t.Errorf("empty histogram: %d", rec.Code)
	}
}

func TestStats(t *testing.T) {
	s := newTestServer(t)
	do(t, s, http.MethodPost, "/v1/streams/default/ingest", "2\n4\n6\n")
	rec := do(t, s, http.MethodGet, "/v1/streams/default/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var st struct {
		Seen   int64   `json:"seen"`
		Mean   float64 `json:"mean"`
		Min    float64 `json:"min"`
		Max    float64 `json:"max"`
		Window int     `json:"window"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Seen != 3 || st.Mean != 4 || st.Min != 2 || st.Max != 6 || st.Window != 3 {
		t.Errorf("stats %+v", st)
	}
}

// TestConcurrentClients hammers the server with parallel ingests and
// queries; run under -race.
func TestConcurrentClients(t *testing.T) {
	s := newTestServer(t)
	do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n3\n4\n")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if id%2 == 0 {
					do(t, s, http.MethodPost, "/v1/streams/default/ingest", "7\n8\n")
				} else {
					do(t, s, http.MethodGet, "/v1/streams/default/histogram", "")
					do(t, s, http.MethodGet, "/v1/streams/default/stats", "")
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestQuantileEndpoint(t *testing.T) {
	s := newTestServer(t)
	var lines strings.Builder
	for i := 1; i <= 100; i++ {
		fmt.Fprintf(&lines, "%d\n", i)
	}
	do(t, s, http.MethodPost, "/v1/streams/default/ingest", lines.String())

	rec := do(t, s, http.MethodGet, "/v1/streams/default/quantile?phi=0.5", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("quantile status %d: %s", rec.Code, rec.Body)
	}
	var q struct {
		Value float64 `json:"value"`
		N     int64   `json:"n"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.N != 100 || q.Value < 45 || q.Value > 55 {
		t.Errorf("quantile response %+v", q)
	}
	for _, bad := range []string{"/v1/streams/default/quantile", "/v1/streams/default/quantile?phi=x", "/v1/streams/default/quantile?phi=2"} {
		if rec := do(t, s, http.MethodGet, bad, ""); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d", bad, rec.Code)
		}
	}
	empty := newTestServer(t)
	if rec := do(t, empty, http.MethodGet, "/v1/streams/default/quantile?phi=0.5", ""); rec.Code != http.StatusConflict {
		t.Errorf("empty quantile: %d", rec.Code)
	}
}

func TestSelectivityEndpoint(t *testing.T) {
	s := newTestServer(t)
	var lines strings.Builder
	for i := 1; i <= 1000; i++ {
		fmt.Fprintf(&lines, "%d\n", i%100)
	}
	do(t, s, http.MethodPost, "/v1/streams/default/ingest", lines.String())

	rec := do(t, s, http.MethodGet, "/v1/streams/default/selectivity?lo=0&hi=49", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("selectivity status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Selectivity float64 `json:"selectivity"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Selectivity < 0.3 || resp.Selectivity > 0.7 {
		t.Errorf("selectivity = %v, want ~0.5", resp.Selectivity)
	}
	for _, bad := range []string{"/v1/streams/default/selectivity", "/v1/streams/default/selectivity?lo=5&hi=1", "/v1/streams/default/selectivity?lo=a&hi=2"} {
		if rec := do(t, s, http.MethodGet, bad, ""); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d", bad, rec.Code)
		}
	}
}

// TestNonFiniteInputRejected pins that NaN and ±Inf never reach a
// stream or a query: each answers 400 bad_request, the stream's seen does
// not move, and the histogram still encodes as JSON afterwards.
func TestNonFiniteInputRejected(t *testing.T) {
	s := newTestServer(t)
	if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n3\n"); rec.Code != http.StatusOK {
		t.Fatalf("seed ingest: %d %s", rec.Code, rec.Body)
	}
	for _, tc := range []struct{ method, target, body string }{
		{http.MethodPost, "/v1/streams/default/ingest", "NaN\n"},
		{http.MethodPost, "/v1/streams/default/ingest", "nan\n"},
		{http.MethodPost, "/v1/streams/default/ingest", "Inf\n"},
		{http.MethodPost, "/v1/streams/default/ingest", "+Inf\n"},
		{http.MethodPost, "/v1/streams/default/ingest", "-Inf\n"},
		{http.MethodPost, "/v1/streams/default/ingest", "4\n-infinity\n5\n"},
		{http.MethodPost, "/v1/streams/default/ingest", "1e400\n"},
		{http.MethodGet, "/v1/streams/default/quantile?phi=NaN", ""},
		{http.MethodGet, "/v1/streams/default/quantile?phi=Inf", ""},
		{http.MethodGet, "/v1/streams/default/selectivity?lo=NaN&hi=NaN", ""},
		{http.MethodGet, "/v1/streams/default/selectivity?lo=NaN&hi=2", ""},
		{http.MethodGet, "/v1/streams/default/selectivity?lo=-Inf&hi=2", ""},
		{http.MethodGet, "/v1/streams/default/selectivity?lo=0&hi=Inf", ""},
		{http.MethodGet, "/v1/streams/default/selectivity?lo=-Inf&hi=%2BInf", ""},
	} {
		rec := do(t, s, tc.method, tc.target, tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s %s %q = %d %q, want 400", tc.method, tc.target, tc.body, rec.Code, rec.Body)
			continue
		}
		if env := decodeEnvelope(t, rec.Body.String()); env.Error.Code != errBadRequest {
			t.Errorf("%s %s %q code = %q, want %q", tc.method, tc.target, tc.body, env.Error.Code, errBadRequest)
		}
	}
	rec := do(t, s, http.MethodGet, "/v1/streams/default/stats", "")
	var st struct {
		Seen int64 `json:"seen"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.Seen != 3 {
		t.Errorf("stats after refused input = %d %q (%v), want seen 3", rec.Code, rec.Body, err)
	}
	rec = do(t, s, http.MethodGet, "/v1/streams/default/histogram", "")
	if rec.Code != http.StatusOK || !json.Valid(rec.Body.Bytes()) {
		t.Errorf("histogram after refused input = %d %q, want 200 with a JSON body", rec.Code, rec.Body)
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	s := newTestServer(t)
	do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n3\n4\n5\n")
	rec := do(t, s, http.MethodGet, "/v1/streams/default/snapshot", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot status %d", rec.Code)
	}
	var restored core.FixedWindow
	if err := restored.UnmarshalBinary(rec.Body.Bytes()); err != nil {
		t.Fatalf("snapshot not restorable: %v", err)
	}
	if restored.Seen() != 5 {
		t.Errorf("restored Seen = %d", restored.Seen())
	}
	if rec := do(t, s, http.MethodPost, "/v1/streams/default/snapshot", "x"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST snapshot: %d", rec.Code)
	}
}

func TestDriftEndpoint(t *testing.T) {
	s := newTestServer(t)
	fill := func(level int) string {
		var sb strings.Builder
		for i := 0; i < 64; i++ {
			fmt.Fprintf(&sb, "%d\n", level)
		}
		return sb.String()
	}
	do(t, s, http.MethodPost, "/v1/streams/default/ingest", fill(100))
	// First call installs the reference.
	rec := do(t, s, http.MethodGet, "/v1/streams/default/drift", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("drift status %d: %s", rec.Code, rec.Body)
	}
	var d struct {
		Drifted bool    `json:"drifted"`
		Dist    float64 `json:"distance"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Drifted {
		t.Error("first drift call drifted")
	}
	// Shift the regime and refill the whole window.
	do(t, s, http.MethodPost, "/v1/streams/default/ingest", fill(900))
	rec = do(t, s, http.MethodGet, "/v1/streams/default/drift", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("drift status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if !d.Drifted || d.Dist < 100 {
		t.Errorf("shift not detected: %+v", d)
	}
	if rec := do(t, s, http.MethodPost, "/v1/streams/default/drift", "x"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST drift: %d", rec.Code)
	}
	empty := newTestServer(t)
	if rec := do(t, empty, http.MethodGet, "/v1/streams/default/drift", ""); rec.Code != http.StatusConflict {
		t.Errorf("empty drift: %d", rec.Code)
	}
}
