package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamhist/internal/obs"
	"streamhist/internal/trace"
)

func tracedServer(t *testing.T, capture bool) (*Server, *trace.Recorder, string) {
	t.Helper()
	tr, err := trace.New(1024)
	if err != nil {
		t.Fatal(err)
	}
	capDir := ""
	if capture {
		capDir = filepath.Join(t.TempDir(), "captures")
		tr.SetSlowCapture(capDir, time.Nanosecond, 4)
	}
	s, err := Open(Options{
		Window: 64, Buckets: 4, Eps: 0.2, Delta: 0.2,
		DataDir: t.TempDir(), SyncEveryAppend: true,
		Trace: tr, Logger: quietLogger,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s, tr, capDir
}

func doTrace(t *testing.T, s *Server, method, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestTraceparentPropagation checks W3C trace-context behavior: an
// incoming traceparent's trace ID is echoed in the response header with
// the server's span substituted; without one the server's own trace ID
// appears.
func TestTraceparentPropagation(t *testing.T) {
	s, tr, _ := tracedServer(t, false)

	const inTP = "00-0123456789abcdeffedcba9876543210-00000000000000ab-01"
	rec := doTrace(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n3\n", map[string]string{"traceparent": inTP})
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body.String())
	}
	out := rec.Header().Get("traceparent")
	if !strings.HasPrefix(out, "00-0123456789abcdeffedcba9876543210-") {
		t.Fatalf("response traceparent %q does not carry the caller's trace ID", out)
	}
	if strings.Contains(out, "-00000000000000ab-") {
		t.Fatal("response traceparent still carries the caller's span ID; want the server's span")
	}
	// The request span must be parented to the caller's span 0xab.
	var httpEnd *trace.Event
	events := tr.Snapshot()
	for i := range events {
		if events[i].Type == trace.EvHTTP && events[i].Ph == trace.PhaseEnd {
			httpEnd = &events[i]
		}
	}
	if httpEnd == nil {
		t.Fatal("no HTTP span recorded")
	}
	if httpEnd.Parent != 0xab {
		t.Fatalf("HTTP span parent = %#x, want 0xab from traceparent", httpEnd.Parent)
	}
	if httpEnd.A != http.StatusOK {
		t.Fatalf("HTTP span end A = %d, want status 200", httpEnd.A)
	}

	rec = doTrace(t, s, http.MethodGet, "/v1/streams/default/stats", "", nil)
	out = rec.Header().Get("traceparent")
	hi, lo := tr.TraceID()
	if !strings.HasPrefix(out, "00-"+trace.FormatTraceparent(hi, lo, 0)[3:36]) {
		t.Fatalf("headerless request got traceparent %q, want the server trace ID", out)
	}
}

// TestTraceEndpointsLabelled: requests to the trace endpoints record
// their own route code (14, 15) in their EvHTTP events and their own
// path label in /metrics, not "other".
func TestTraceEndpointsLabelled(t *testing.T) {
	tr, err := trace.New(256)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Window: 64, Buckets: 4, Eps: 0.2, Delta: 0.2,
		Trace: tr, Metrics: obs.NewRegistry(), Logger: quietLogger})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for path, code := range map[string]uint8{"/debug/trace/events": 14, "/debug/trace/chrome": 15} {
		rec := doTrace(t, s, http.MethodGet, path, "", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, rec.Code)
		}
		_, _, span, ok := trace.ParseTraceparent(rec.Header().Get("traceparent"))
		if !ok {
			t.Fatalf("GET %s: no traceparent in the response", path)
		}
		seen := 0
		for _, e := range tr.Snapshot() {
			if e.Type != trace.EvHTTP || e.Span != span {
				continue
			}
			seen++
			if e.Code != code || tracePathName(e.Type, e.Code) != path {
				t.Errorf("GET %s: EvHTTP event code %d (%q), want %d", path, e.Code, tracePathName(e.Type, e.Code), code)
			}
		}
		if seen != 2 {
			t.Errorf("GET %s: %d EvHTTP events for its span, want begin and end", path, seen)
		}
	}
	metrics := doTrace(t, s, http.MethodGet, "/metrics", "", nil).Body.String()
	for _, path := range []string{"/debug/trace/events", "/debug/trace/chrome"} {
		if want := `streamhist_http_requests_total{path="` + path + `",code="2xx"} 1`; !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
}

// TestSlowRebuildCaptureSpanTree is the acceptance-criteria test: under
// an injected 1ns threshold, a capture must be produced whose event list
// forms a well-formed span tree — HTTP → ingest → WAL on the write path,
// HTTP → rebuild → per-level events on the query path that flushed the
// lazy ingest — with every non-root parent resolving to a recorded span.
func TestSlowRebuildCaptureSpanTree(t *testing.T) {
	s, _, capDir := tracedServer(t, true)

	if rec := doTrace(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n3\n4\n5\n", nil); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body.String())
	}
	if rec := doTrace(t, s, http.MethodGet, "/v1/streams/default/histogram", "", nil); rec.Code != http.StatusOK {
		t.Fatalf("histogram: %d %s", rec.Code, rec.Body.String())
	}

	files, err := filepath.Glob(filepath.Join(capDir, "capture-*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no capture written under 1ns threshold (err=%v)", err)
	}
	blob, err := os.ReadFile(files[len(files)-1])
	if err != nil {
		t.Fatal(err)
	}
	var c trace.Capture
	if err := json.Unmarshal(blob, &c); err != nil {
		t.Fatalf("capture is not valid JSON: %v", err)
	}
	if c.Stats.Window == 0 || c.Stats.Buckets != 4 {
		t.Fatalf("capture stats not populated: %+v", c.Stats)
	}

	// Index spans: begin events introduce IDs (ends repeat them).
	spans := map[uint64]trace.EventJSON{}
	for _, e := range c.Events {
		if e.Phase == "begin" {
			spans[e.Span] = e
		}
	}
	// Every non-root parent must resolve to a recorded span.
	for _, e := range c.Events {
		if e.Parent == 0 {
			continue
		}
		if _, ok := spans[e.Parent]; !ok {
			// The caller's span from an external traceparent is legal as
			// an unresolvable root; none is injected in this test.
			t.Fatalf("event %+v has unresolvable parent %d", e, e.Parent)
		}
	}

	find := func(typ, phase string) []trace.EventJSON {
		var out []trace.EventJSON
		for _, e := range c.Events {
			if e.Type == typ && e.Phase == phase {
				out = append(out, e)
			}
		}
		return out
	}

	// Write path: HTTP(/ingest) → ingest → wal_append (+ wal_sync).
	ingests := find("ingest", "begin")
	if len(ingests) != 1 {
		t.Fatalf("want 1 ingest span, got %d", len(ingests))
	}
	ing := ingests[0]
	parent, ok := spans[ing.Parent]
	if !ok || parent.Type != "http" || parent.Name != "/v1/streams/{key}/ingest" {
		t.Fatalf("ingest span parent = %+v, want the /ingest HTTP span", parent)
	}
	walAppends := find("wal_append", "instant")
	if len(walAppends) != 1 || walAppends[0].Parent != ing.Span {
		t.Fatalf("wal_append not parented to the ingest span: %+v", walAppends)
	}
	if walAppends[0].N != 5 || walAppends[0].A <= 0 {
		t.Fatalf("wal_append payload A=%d N=%d, want bytes>0 and 5 values", walAppends[0].A, walAppends[0].N)
	}
	if syncs := find("wal_sync", "instant"); len(syncs) != 1 || syncs[0].Parent != ing.Span {
		t.Fatalf("wal_sync not parented to the ingest span: %+v", syncs)
	}

	// Query path: the lazy flush rebuild is attributed to the histogram
	// request that forced it. HTTP(/histogram) → rebuild → levels.
	rebuilds := find("rebuild", "begin")
	if len(rebuilds) != 1 {
		t.Fatalf("want 1 rebuild span, got %d", len(rebuilds))
	}
	rb := rebuilds[0]
	parent, ok = spans[rb.Parent]
	if !ok || parent.Type != "http" || parent.Name != "/v1/streams/{key}/histogram" {
		t.Fatalf("rebuild parent = %+v, want the /histogram HTTP span (lazy-flush causality)", parent)
	}
	levels := find("level", "instant")
	if len(levels) != 3 { // B-1 levels
		t.Fatalf("want 3 level events, got %d", len(levels))
	}
	seenLevels := map[uint8]bool{}
	for _, lv := range levels {
		if lv.Parent != rb.Span {
			t.Fatalf("level %+v not parented to rebuild span %d", lv, rb.Span)
		}
		seenLevels[lv.Code] = true
	}
	for k := uint8(1); k <= 3; k++ {
		if !seenLevels[k] {
			t.Fatalf("level k=%d missing (got %v)", k, seenLevels)
		}
	}
	rbEnds := find("rebuild", "end")
	if len(rbEnds) != 1 || rbEnds[0].N != 5 {
		t.Fatalf("rebuild end should report 5 flushed pending points: %+v", rbEnds)
	}
}

// TestTraceEndpoints covers /debug/trace/events and /debug/trace/chrome:
// correct content with tracing on, 404 with tracing off.
func TestTraceEndpoints(t *testing.T) {
	s, _, _ := tracedServer(t, false)
	if rec := doTrace(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n", nil); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d", rec.Code)
	}
	if rec := doTrace(t, s, http.MethodGet, "/v1/streams/default/histogram", "", nil); rec.Code != http.StatusOK {
		t.Fatalf("histogram: %d", rec.Code)
	}

	rec := doTrace(t, s, http.MethodGet, "/debug/trace/events", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/trace/events: %d", rec.Code)
	}
	var doc struct {
		TraceID  string            `json:"traceId"`
		Capacity int               `json:"capacity"`
		Total    uint64            `json:"total"`
		Events   []trace.EventJSON `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("events endpoint JSON: %v", err)
	}
	if doc.Capacity != 1024 || doc.Total == 0 || len(doc.Events) == 0 || len(doc.TraceID) != 32 {
		t.Fatalf("events payload implausible: cap=%d total=%d events=%d traceId=%q",
			doc.Capacity, doc.Total, len(doc.Events), doc.TraceID)
	}
	named := false
	for _, e := range doc.Events {
		if e.Type == "http" && e.Name == "/v1/streams/{key}/ingest" {
			named = true
		}
	}
	if !named {
		t.Fatal("no HTTP event named /ingest; code namer not wired")
	}

	rec = doTrace(t, s, http.MethodGet, "/debug/trace/chrome", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/trace/chrome: %d", rec.Code)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome endpoint JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome export is empty")
	}
	if rec.Header().Get("Content-Disposition") == "" {
		t.Fatal("chrome export missing download disposition")
	}

	if rec := doTrace(t, s, http.MethodPost, "/debug/trace/events", "", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /debug/trace/events = %d, want 405", rec.Code)
	}

	// Tracing disabled: the endpoints must not exist.
	plain, err := New(64, 4, 0.2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if rec := doTrace(t, plain, http.MethodGet, "/debug/trace/events", "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("disabled /debug/trace/events = %d, want 404", rec.Code)
	}
	if rec := doTrace(t, plain, http.MethodGet, "/debug/trace/chrome", "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("disabled /debug/trace/chrome = %d, want 404", rec.Code)
	}
}

// TestCheckpointTraced checks the durability path records EvCheckpoint.
func TestCheckpointTraced(t *testing.T) {
	s, tr, _ := tracedServer(t, false)
	if rec := doTrace(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n3\n", nil); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d", rec.Code)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, e := range tr.Snapshot() {
		if e.Type == trace.EvCheckpoint {
			found = true
			if e.N != 3 || e.A <= 0 {
				t.Fatalf("checkpoint event A=%d N=%d, want blob bytes and seen=3", e.A, e.N)
			}
		}
	}
	if !found {
		t.Fatal("no EvCheckpoint recorded")
	}
}

// TestRestoreReattachesTracer ensures a /restore'd window keeps tracing.
func TestRestoreReattachesTracer(t *testing.T) {
	s, tr, _ := tracedServer(t, false)
	if rec := doTrace(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n3\n", nil); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d", rec.Code)
	}
	snap := doTrace(t, s, http.MethodGet, "/v1/streams/default/snapshot", "", nil)
	if snap.Code != http.StatusOK {
		t.Fatalf("snapshot: %d", snap.Code)
	}
	if rec := doTrace(t, s, http.MethodPost, "/v1/streams/default/restore", snap.Body.String(), nil); rec.Code != http.StatusOK {
		t.Fatalf("restore: %d %s", rec.Code, rec.Body.String())
	}
	// The restored window is freshly rebuilt, so force new maintenance:
	// ingest then query. The rebuild must be traced through the restored
	// maintainer.
	before := tr.Total()
	if rec := doTrace(t, s, http.MethodPost, "/v1/streams/default/ingest", "4\n5\n", nil); rec.Code != http.StatusOK {
		t.Fatalf("ingest after restore: %d", rec.Code)
	}
	if rec := doTrace(t, s, http.MethodGet, "/v1/streams/default/histogram", "", nil); rec.Code != http.StatusOK {
		t.Fatalf("histogram: %d", rec.Code)
	}
	var sawRebuild bool
	for _, e := range tr.Snapshot() {
		if e.Type == trace.EvRebuild {
			sawRebuild = true
		}
	}
	if tr.Total() <= before || !sawRebuild {
		t.Fatal("no traced rebuild after restore; tracer not re-attached")
	}
}

// TestTraceMetricsRegistered checks the drop counter surfaces in the obs
// registry when both are wired through Options.
func TestTraceMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	tr, err := trace.New(8) // tiny ring so drops occur
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{
		Window: 64, Buckets: 4, Eps: 0.2, Delta: 0.2,
		Metrics: reg, Trace: tr, Logger: quietLogger,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		if rec := doTrace(t, s, http.MethodGet, "/v1/streams/default/histogram", "", nil); rec.Code != http.StatusOK && rec.Code != http.StatusConflict {
			t.Fatalf("histogram: %d", rec.Code)
		}
	}
	rec := doTrace(t, s, http.MethodGet, "/metrics", "", nil)
	body := rec.Body.String()
	if !strings.Contains(body, "streamhist_trace_events_total") {
		t.Fatalf("trace events counter not exported:\n%s", body)
	}
	if !strings.Contains(body, "streamhist_trace_events_dropped_total") {
		t.Fatalf("trace drop counter not exported:\n%s", body)
	}
}
