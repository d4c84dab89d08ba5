package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"streamhist/internal/faults"
	"streamhist/internal/obs"
)

// errorEnvelope mirrors the unified error body every non-2xx response
// carries.
type errorEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func decodeEnvelope(t *testing.T, body string) errorEnvelope {
	t.Helper()
	var env errorEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("error body %q is not the envelope: %v", body, err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope %q missing code or message", body)
	}
	return env
}

// TestErrorEnvelope checks that errors across handlers — wrong method,
// conflict on an empty window, malformed parameters, a bad snapshot —
// share the single JSON envelope with stable machine codes.
func TestErrorEnvelope(t *testing.T) {
	s := newTestServer(t)
	for _, tc := range []struct {
		method, target, body string
		status               int
		code                 string
	}{
		{http.MethodGet, "/v1/streams/default/ingest", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{http.MethodPost, "/v1/streams/default/histogram", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{http.MethodGet, "/v1/streams/default/query?lo=0&hi=1", "", http.StatusConflict, "conflict"},
		{http.MethodGet, "/v1/streams/default/agglom", "", http.StatusConflict, "conflict"},
		{http.MethodGet, "/v1/streams/default/quantile?phi=2", "", http.StatusBadRequest, "bad_request"},
		{http.MethodGet, "/v1/streams/default/selectivity?lo=x&hi=y", "", http.StatusBadRequest, "bad_request"},
		{http.MethodPost, "/v1/streams/default/restore", "garbage", http.StatusBadRequest, "bad_snapshot"},
	} {
		rec := do(t, s, tc.method, tc.target, tc.body)
		if rec.Code != tc.status {
			t.Errorf("%s %s: status %d, want %d (body %q)", tc.method, tc.target, rec.Code, tc.status, rec.Body.String())
			continue
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: content type %q", tc.method, tc.target, ct)
		}
		env := decodeEnvelope(t, rec.Body.String())
		if env.Error.Code != tc.code {
			t.Errorf("%s %s: code %q, want %q", tc.method, tc.target, env.Error.Code, tc.code)
		}
	}
}

// TestTimeoutBodyIsEnvelope pins the http.TimeoutHandler body to the same
// envelope shape as writeError output.
func TestTimeoutBodyIsEnvelope(t *testing.T) {
	env := decodeEnvelope(t, timeoutBody)
	if env.Error.Code != errTimeout {
		t.Errorf("timeout code %q", env.Error.Code)
	}
}

// TestAgglomEndpoint exercises the whole-stream histogram endpoint.
func TestAgglomEndpoint(t *testing.T) {
	s := newTestServer(t)
	do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n1\n1\n9\n9\n9\n")
	rec := do(t, s, http.MethodGet, "/v1/streams/default/agglom", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		N         int     `json:"n"`
		SSE       float64 `json:"sse"`
		Endpoints int     `json:"endpoints"`
		Buckets   []struct {
			Start int     `json:"start"`
			End   int     `json:"end"`
			Value float64 `json:"value"`
		} `json:"buckets"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.N != 6 || len(resp.Buckets) == 0 || resp.Endpoints == 0 {
		t.Errorf("agglom response %+v", resp)
	}
}

// requireEndpointTotal checks streamhist_agglom_endpoints against the sum
// of the endpoints every live stream's /agglom reports (an empty stream
// answers 409 and holds none), and returns that sum.
func requireEndpointTotal(t *testing.T, s *Server, reg *obs.Registry, step string, live ...string) int {
	t.Helper()
	want := 0
	for _, k := range live {
		rec := do(t, s, http.MethodGet, "/v1/streams/"+k+"/agglom", "")
		switch rec.Code {
		case http.StatusOK:
			var resp struct {
				Endpoints int `json:"endpoints"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			want += resp.Endpoints
		case http.StatusConflict:
		default:
			t.Fatalf("%s: /agglom for %q: %d: %s", step, k, rec.Code, rec.Body)
		}
	}
	if got := reg.Gauge("streamhist_agglom_endpoints", "").Value(); got != float64(want) {
		t.Errorf("%s: streamhist_agglom_endpoints = %v, want the live streams' sum %d", step, got, want)
	}
	return want
}

// TestAgglomEndpointsGaugeIsDaemonTotal: the endpoint gauge is the
// daemon-wide total over live streams, not the last-pushed stream's
// count. It must follow ingest into several streams, a delete, a restore
// that replaces a stream, a crash recovery whose WAL replay creates,
// feeds and deletes streams, and ingests racing deletes and restores of
// the same keys: an ingest's agglomerative update runs after the shard
// loop's reply, so it can reach a stream the loop has since discarded,
// and must then leave the gauge alone.
func TestAgglomEndpointsGaugeIsDaemonTotal(t *testing.T) {
	dir := t.TempDir()
	opts := crashOptions(dir, faults.OS{})
	opts.Shards = 2
	reg := obs.NewRegistry()
	opts.Metrics = reg
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(s *Server, key string, n, seed int) {
		t.Helper()
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "%d\n", (i*seed)%17+i/9)
		}
		if rec := do(t, s, http.MethodPost, "/v1/streams/"+key+"/ingest", b.String()); rec.Code != http.StatusOK {
			t.Fatalf("ingest %q: %d: %s", key, rec.Code, rec.Body)
		}
	}
	ingest(s, "a", 120, 5)
	ingest(s, "b", 90, 7)
	ingest(s, "c", 60, 3)
	if requireEndpointTotal(t, s, reg, "after ingest", DefaultStream, "a", "b", "c") == 0 {
		t.Fatal("no endpoints stored after ingest")
	}
	if rec := do(t, s, http.MethodDelete, "/v1/streams/b", ""); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d: %s", rec.Code, rec.Body)
	}
	requireEndpointTotal(t, s, reg, "after delete", DefaultStream, "a", "c")
	snap := do(t, s, http.MethodGet, "/v1/streams/a/snapshot", "")
	if snap.Code != http.StatusOK {
		t.Fatalf("snapshot: %d", snap.Code)
	}
	if rec := do(t, s, http.MethodPost, "/v1/streams/c/restore", snap.Body.String()); rec.Code != http.StatusOK {
		t.Fatalf("restore: %d: %s", rec.Code, rec.Body)
	}
	requireEndpointTotal(t, s, reg, "after restore", DefaultStream, "a", "c")

	// The restore checkpointed and reset the WAL, so everything below is
	// a replayed tail after the crash.
	ingest(s, "a", 50, 11)
	ingest(s, "d", 70, 13)
	if rec := do(t, s, http.MethodDelete, "/v1/streams/d", ""); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d: %s", rec.Code, rec.Body)
	}
	ingest(s, "c", 40, 2)
	s.eng.Abort()

	reg2 := obs.NewRegistry()
	opts.Metrics = reg2
	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if requireEndpointTotal(t, s2, reg2, "after recovery", DefaultStream, "a", "c") == 0 {
		t.Fatal("no endpoints rebuilt by the replayed tail")
	}

	rounds := 40
	if testing.Short() {
		rounds = 15
	}
	keys := []string{"r0", "r1", "r2", "r3"}
	serve := func(method, target, body string, ok ...int) {
		rec := httptest.NewRecorder()
		s2.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		for _, code := range ok {
			if rec.Code == code {
				return
			}
		}
		t.Errorf("%s %s: %d: %s", method, target, rec.Code, rec.Body)
	}
	var wg sync.WaitGroup
	for i, key := range keys {
		wg.Add(1)
		go func(i int, key string) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var b strings.Builder
				for j := 0; j < 40; j++ {
					fmt.Fprintf(&b, "%d\n", (j*(i+3)+r)%23+j/5)
				}
				serve(http.MethodPost, "/v1/streams/"+key+"/ingest", b.String(), http.StatusOK)
			}
		}(i, key)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			serve(http.MethodDelete, "/v1/streams/"+keys[r%len(keys)], "", http.StatusOK, http.StatusNotFound)
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			serve(http.MethodPost, "/v1/streams/"+keys[(r+2)%len(keys)]+"/restore", snap.Body.String(), http.StatusOK)
		}
	}()
	wg.Wait()
	requireEndpointTotal(t, s2, reg2, "after ingests raced deletes and restores", s2.eng.Keys()...)
}

// TestMetricsEndpoint drives a durable, instrumented server through
// ingest, queries and a checkpoint, then scrapes /metrics and checks the
// exposition covers every layer: core maintenance, the agglomerative
// summary, the WAL and checkpoints, and HTTP itself — with GK-backed
// latency quantiles — and carries at least 15 series families.
func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Open(Options{
		Window: 64, Buckets: 4, Eps: 0.2, Delta: 0.2,
		DataDir:     t.TempDir(),
		Metrics:     reg,
		Incremental: true,
		Audit:       true,
		Logger:      quietLogger,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	}()
	do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n3\n4\n5\n6\n7\n8\n")
	do(t, s, http.MethodGet, "/v1/streams/default/histogram", "")
	do(t, s, http.MethodGet, "/v1/streams/default/agglom", "")
	do(t, s, http.MethodGet, "/nonexistent", "")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	rec := do(t, s, http.MethodGet, "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body := rec.Body.String()

	families := 0
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE streamhist_") {
			families++
		}
	}
	if families < 15 {
		t.Errorf("exposition has %d streamhist_ families, want >= 15:\n%s", families, body)
	}

	for _, want := range []string{
		// core layer
		"streamhist_core_rebuilds_total",
		"streamhist_core_createlist_total",
		"streamhist_core_lazy_flush_points_total",
		"streamhist_core_push_seconds",
		// rebuild engine: probe memo and warm-started CreateList
		"streamhist_core_memo_hits_total",
		"streamhist_core_memo_misses_total",
		"streamhist_core_warm_hits_total",
		"streamhist_core_warm_fallbacks_total",
		// rebuild engine: incremental cover repair
		"streamhist_core_incr_hits_total",
		"streamhist_core_incr_repairs_total",
		"streamhist_core_incr_fallbacks_total",
		"streamhist_core_incr_fallback_ratio",
		// agglomerative layer
		"streamhist_agglom_points_total 8",
		"streamhist_agglom_endpoints",
		// durability layer
		"streamhist_wal_appends_total 1",
		"streamhist_wal_fsync_seconds",
		"streamhist_checkpoints_total 1",
		// http layer
		`streamhist_http_requests_total{path="/v1/streams/{key}/ingest",code="2xx"} 1`,
		`streamhist_http_requests_total{path="other",code="4xx"} 1`,
		`streamhist_http_request_seconds{path="/v1/streams/{key}/ingest",quantile="0.5"}`,
		`streamhist_http_request_seconds{path="/v1/streams/{key}/ingest",quantile="0.99"}`,
		"streamhist_http_inflight_requests",
		// state gauges
		"streamhist_window_points 8",
		"streamhist_stream_seen 8",
		"streamhist_gk_tuples",
		// accuracy-audit layer (registered at engine construction, so the
		// names appear before the first pass runs)
		"streamhist_quality_audits_total",
		"streamhist_quality_queries_total",
		"streamhist_quality_audit_seconds",
		"streamhist_quality_eps_headroom",
		"streamhist_quality_max_rel_err",
		"streamhist_quality_staleness_ratio",
		"streamhist_quality_drift_distance",
		"streamhist_slo_breaches_total",
		"streamhist_drift_reanchors_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestPprofMounting checks the profiling handlers are opt-in.
func TestPprofMounting(t *testing.T) {
	off := newTestServer(t)
	if rec := do(t, off, http.MethodGet, "/debug/pprof/", ""); rec.Code != http.StatusNotFound {
		t.Errorf("pprof reachable without EnablePprof: %d", rec.Code)
	}
	on, err := Open(Options{Window: 64, Buckets: 4, Eps: 0.2, Delta: 0.2, EnablePprof: true})
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()
	if rec := do(t, on, http.MethodGet, "/debug/pprof/", ""); rec.Code != http.StatusOK {
		t.Errorf("pprof index status %d with EnablePprof", rec.Code)
	}
	if rec := do(t, on, http.MethodGet, "/debug/pprof/cmdline", ""); rec.Code != http.StatusOK {
		t.Errorf("pprof cmdline status %d", rec.Code)
	}
	// The API keeps working behind the pprof mux.
	if rec := do(t, on, http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK {
		t.Errorf("healthz status %d behind pprof mux", rec.Code)
	}
}
