package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"streamhist/internal/obs"
	"streamhist/internal/trace"
)

// auditedServer builds an in-memory server with tight audit knobs so
// passes run within a few hundred points.
func auditedServer(t *testing.T) *Server {
	t.Helper()
	s, err := Open(Options{Window: 512, Buckets: 8, Eps: 0.1, Delta: 0.1,
		AuditInterval: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// ingestN streams n points in batches of 64 — audits trigger at most
// once per processed batch, so batch size must not exceed the interval
// for every due pass to actually run.
func ingestN(t *testing.T, s *Server, key string, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for sent := 0; sent < n; {
		var b strings.Builder
		for i := 0; i < 64 && sent < n; i++ {
			fmt.Fprintf(&b, "%g\n", 100+50*rng.Float64())
			sent++
		}
		rec := do(t, s, http.MethodPost, "/v1/streams/"+key+"/ingest", b.String())
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// TestSLOEndpoint is the golden test for GET /v1/streams/{key}/slo: the
// response shape is the API contract.
func TestSLOEndpoint(t *testing.T) {
	s := auditedServer(t)
	// 1.5 windows: the drift detector re-anchors while the window fills
	// (its span changes every pass) and only starts comparing once full,
	// so checks need post-fill audits to accumulate.
	ingestN(t, s, "tenant-a", 7, 768)

	rec := do(t, s, http.MethodGet, "/v1/streams/tenant-a/slo", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("slo status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Stream string `json:"stream"`
		SLO    struct {
			Objective  string  `json:"objective"`
			Target     float64 `json:"target"`
			Window     int     `json:"window"`
			Samples    int     `json:"samples"`
			Compliance float64 `json:"compliance"`
			BurnRate   float64 `json:"burnRate"`
			Breaching  bool    `json:"breaching"`
			Breaches   int64   `json:"breaches"`
		} `json:"slo"`
		Audits    int64 `json:"audits"`
		Queries   int64 `json:"queries"`
		Breaches  int64 `json:"breaches"`
		LastAudit *struct {
			Seen      int64   `json:"seen"`
			Window    int     `json:"window"`
			Epsilon   float64 `json:"epsilon"`
			MaxRelErr float64 `json:"maxRelErr"`
			Headroom  float64 `json:"headroom"`
			Classes   map[string]struct {
				Queries    int     `json:"queries"`
				MaxRelErr  float64 `json:"maxRelErr"`
				MeanRelErr float64 `json:"meanRelErr"`
				Headroom   float64 `json:"headroom"`
			} `json:"classes"`
			Staleness float64 `json:"staleness"`
			Drift     struct {
				Distance float64 `json:"distance"`
				Drifted  bool    `json:"drifted"`
				Alarms   int     `json:"alarms"`
				Checks   int     `json:"checks"`
			} `json:"drift"`
		} `json:"lastAudit"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("slo body does not parse: %v\n%s", err, rec.Body.String())
	}
	if resp.Stream != "tenant-a" {
		t.Errorf("stream %q", resp.Stream)
	}
	if resp.SLO.Target != 0.9 || resp.SLO.Window != 256 {
		t.Errorf("objective %+v, want target 0.9 window 256", resp.SLO)
	}
	if resp.SLO.Objective == "" {
		t.Error("objective text missing")
	}
	if resp.Audits < 1 || resp.Queries < 1 {
		t.Errorf("audits=%d queries=%d after 512 points at interval 64", resp.Audits, resp.Queries)
	}
	if resp.SLO.Samples == 0 || resp.SLO.Compliance <= 0 || resp.SLO.Compliance > 1 {
		t.Errorf("slo accounting %+v", resp.SLO)
	}
	if resp.LastAudit == nil {
		t.Fatal("lastAudit missing")
	}
	if resp.LastAudit.Epsilon != 0.1 {
		t.Errorf("epsilon %g, want the stream's 0.1", resp.LastAudit.Epsilon)
	}
	if resp.LastAudit.Seen != 768 {
		t.Errorf("audit position %d, want 768", resp.LastAudit.Seen)
	}
	if resp.LastAudit.Drift.Checks < 1 {
		t.Errorf("drift state %+v: no checks recorded", resp.LastAudit.Drift)
	}
	for _, class := range []string{"range", "quantile", "selectivity"} {
		if _, ok := resp.LastAudit.Classes[class]; !ok {
			t.Errorf("lastAudit.classes missing %q", class)
		}
	}

	// Unknown stream: the standard stream error envelope.
	rec = do(t, s, http.MethodGet, "/v1/streams/nope/slo", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown stream slo status %d", rec.Code)
	}
	if env := decodeEnvelope(t, rec.Body.String()); env.Error.Code != "unknown_stream" {
		t.Errorf("unknown stream code %q", env.Error.Code)
	}

	// Wrong method.
	rec = do(t, s, http.MethodPost, "/v1/streams/tenant-a/slo", "x")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST slo status %d", rec.Code)
	}
}

// TestSLOEndpointDisabled: without Options.AuditInterval the endpoint answers 404
// with its own machine code, distinguishable from unknown_stream.
func TestSLOEndpointDisabled(t *testing.T) {
	s := newTestServer(t)
	do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n3\n")
	rec := do(t, s, http.MethodGet, "/v1/streams/default/slo", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("slo status %d on an unaudited server", rec.Code)
	}
	if env := decodeEnvelope(t, rec.Body.String()); env.Error.Code != "audit_disabled" {
		t.Errorf("code %q, want audit_disabled", env.Error.Code)
	}
}

// TestDebugQuality: the fleet-wide audit page lists every audited
// stream with its SLO state.
func TestDebugQuality(t *testing.T) {
	s := auditedServer(t)
	ingestN(t, s, "tenant-a", 1, 256)
	ingestN(t, s, "tenant-b", 2, 256)

	rec := do(t, s, http.MethodGet, "/debug/quality", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("debug/quality status %d", rec.Code)
	}
	var resp struct {
		Audit   bool `json:"audit"`
		Count   int  `json:"count"`
		Streams []struct {
			Stream string `json:"stream"`
			Shard  int    `json:"shard"`
			Status struct {
				Audits     int64   `json:"audits"`
				Compliance float64 `json:"compliance"`
			} `json:"status"`
		} `json:"streams"`
		Breaching int `json:"breaching"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("debug/quality body: %v\n%s", err, rec.Body.String())
	}
	if !resp.Audit {
		t.Error("audit flag false on an audited server")
	}
	// default + the two tenants (default is audited but empty).
	if resp.Count != 3 || len(resp.Streams) != 3 {
		t.Fatalf("count=%d streams=%d, want 3 (default, tenant-a, tenant-b)", resp.Count, len(resp.Streams))
	}
	// Sorted by key.
	for i, want := range []string{"default", "tenant-a", "tenant-b"} {
		if resp.Streams[i].Stream != want {
			t.Errorf("streams[%d] = %q, want %q", i, resp.Streams[i].Stream, want)
		}
	}
	for _, st := range resp.Streams[1:] {
		if st.Status.Audits < 1 {
			t.Errorf("stream %q shows no audits", st.Stream)
		}
	}

	// Disabled server: the page still serves, reporting audit off.
	off := newTestServer(t)
	rec = do(t, off, http.MethodGet, "/debug/quality", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("debug/quality status %d on unaudited server", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"audit":false`) {
		t.Errorf("unaudited page %s", rec.Body.String())
	}
}

// TestReadyzShardDetail: the readiness body carries per-shard health.
func TestReadyzShardDetail(t *testing.T) {
	s, err := Open(Options{Window: 64, Buckets: 4, Eps: 0.2, Delta: 0.2, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n3\n")

	rec := do(t, s, http.MethodGet, "/readyz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz status %d", rec.Code)
	}
	var resp struct {
		Status   string `json:"status"`
		Degraded bool   `json:"degraded"`
		Shards   []struct {
			ID          int    `json:"id"`
			Streams     int    `json:"streams"`
			Degraded    bool   `json:"degraded"`
			Quarantined bool   `json:"quarantined"`
			Breaker     string `json:"breaker"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("readyz body: %v\n%s", err, rec.Body.String())
	}
	if resp.Status != "ready" || resp.Degraded {
		t.Errorf("status %+v", resp)
	}
	if len(resp.Shards) != 3 {
		t.Fatalf("%d shards in readyz, want 3", len(resp.Shards))
	}
	total := 0
	for i, sh := range resp.Shards {
		if sh.ID != i {
			t.Errorf("shards[%d].id = %d", i, sh.ID)
		}
		if sh.Breaker != "closed" || sh.Degraded || sh.Quarantined {
			t.Errorf("shard %d unexpected health %+v", i, sh)
		}
		total += sh.Streams
	}
	if total != 1 { // the reserved default stream
		t.Errorf("readyz counts %d streams, want 1", total)
	}
}

// TestDriftReanchorObservable: a drift re-anchor increments
// streamhist_drift_reanchors_total by exactly one and emits one EvDrift
// instant, whichever path ran the check: an audit pass or the HTTP drift
// endpoint.
func TestDriftReanchorObservable(t *testing.T) {
	reg := obs.NewRegistry()
	tr, err := trace.New(256)
	if err != nil {
		t.Fatal(err)
	}
	// One audit pass per full window.
	s, err := Open(Options{
		Window: 64, Buckets: 4, Eps: 0.2, Delta: 0.2,
		AuditInterval: 64,
		Metrics:       reg, Trace: tr, Logger: quietLogger,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reanchors := reg.Counter("streamhist_drift_reanchors_total", "")
	fill := func(level, n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "%d\n", level+i%3)
		}
		return b.String()
	}
	drift := func() string {
		t.Helper()
		rec := do(t, s, http.MethodGet, "/v1/streams/default/drift", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("drift call: %d %s", rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	driftEvents := func() (n int) {
		for _, ev := range tr.Snapshot() {
			if ev.Type == trace.EvDrift {
				n++
				if ev.A <= 0 {
					t.Errorf("EvDrift distance payload %d, want > 0", ev.A)
				}
			}
		}
		return n
	}

	// A full window of low values: the pass anchors the detector, and the
	// endpoint sees the same window, so neither path drifts.
	do(t, s, http.MethodPost, "/v1/streams/default/ingest", fill(100, 64))
	if body := drift(); !strings.Contains(body, `"drifted":false`) {
		t.Fatalf("unchanged window drifted: %s", body)
	}
	if got := reanchors.Value(); got != 0 {
		t.Fatalf("%d re-anchors before any drift", got)
	}

	// A full window of high values: the audit pass drifts.
	do(t, s, http.MethodPost, "/v1/streams/default/ingest", fill(900, 64))
	rec := do(t, s, http.MethodGet, "/v1/streams/default/slo", "")
	if !strings.Contains(rec.Body.String(), `"drifted":true`) {
		t.Fatalf("audit pass did not report the shift: %s", rec.Body.String())
	}
	if got, ev := reanchors.Value(), driftEvents(); got != 1 || ev != 1 {
		t.Fatalf("after the audit's re-anchor: counter %d, %d EvDrift instants, want 1 and 1", got, ev)
	}

	// Low values again, one short of a pass: the endpoint drifts.
	do(t, s, http.MethodPost, "/v1/streams/default/ingest", fill(100, 63))
	if body := drift(); !strings.Contains(body, `"drifted":true`) {
		t.Fatalf("distribution shift not detected: %s", body)
	}
	if got, ev := reanchors.Value(), driftEvents(); got != 2 || ev != 2 {
		t.Fatalf("after the endpoint's re-anchor: counter %d, %d EvDrift instants, want 2 and 2", got, ev)
	}
	mrec := do(t, s, http.MethodGet, "/metrics", "")
	if !strings.Contains(mrec.Body.String(), "streamhist_drift_reanchors_total 2") {
		t.Errorf("drift re-anchor counter missing or wrong:\n%s", mrec.Body.String())
	}
}
