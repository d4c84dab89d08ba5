package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"streamhist/internal/faults"
	"streamhist/internal/leakcheck"
	"streamhist/internal/obs"
	"streamhist/internal/shard"
)

// streamErrEnvelope is the per-stream variant of the error envelope: the
// shared body plus the "stream" field naming the key.
type streamErrEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
		Stream  string `json:"stream"`
	} `json:"error"`
}

func decodeStreamEnvelope(t *testing.T, body string) streamErrEnvelope {
	t.Helper()
	var env streamErrEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("error body %q is not the envelope: %v", body, err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope %q missing code or message", body)
	}
	return env
}

// TestMethodNotAllowedAllowHeader pins the 405 contract: the shared
// method guard answers every wrong-method request with the error
// envelope AND an Allow header listing exactly what would have worked.
func TestMethodNotAllowedAllowHeader(t *testing.T) {
	s := newTestServer(t)
	for _, tc := range []struct {
		method, target, wantAllow string
	}{
		{http.MethodDelete, "/v1/streams/default/histogram", "GET"},
		{http.MethodPost, "/v1/streams/default/stats", "GET"},
		{http.MethodPut, "/v1/streams/default/restore", "POST"},
		{http.MethodGet, "/v1/streams/default/ingest", "POST"},
		{http.MethodPost, "/v1/streams/default/histogram", "GET"},
		{http.MethodDelete, "/v1/streams/default/quantile", "GET"},
		{http.MethodPost, "/v1/streams", "GET"},
		{http.MethodGet, "/v1/streams/default", "DELETE"},
		{http.MethodPost, "/v1/streams/default", "DELETE"},
	} {
		rec := do(t, s, tc.method, tc.target, "")
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", tc.method, tc.target, rec.Code)
			continue
		}
		if got := rec.Header().Get("Allow"); got != tc.wantAllow {
			t.Errorf("%s %s Allow = %q, want %q", tc.method, tc.target, got, tc.wantAllow)
		}
		if env := decodeEnvelope(t, rec.Body.String()); env.Error.Code != errMethodNotAllowed {
			t.Errorf("%s %s code = %q, want %q", tc.method, tc.target, env.Error.Code, errMethodNotAllowed)
		}
	}
}

// TestUnknownPathsNotFound pins the envelope contract for paths no route
// claims, the unversioned /ingest-style paths among them: 404 in the
// JSON error envelope with code not_found, labelled "other" in /metrics,
// and no write reaches the default stream.
func TestUnknownPathsNotFound(t *testing.T) {
	s, err := Open(Options{Window: 64, Buckets: 4, Eps: 0.2, Delta: 0.2, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	targets := []struct{ method, target string }{
		{http.MethodPost, "/ingest"},
		{http.MethodGet, "/histogram"},
		{http.MethodGet, "/nope"},
		{http.MethodGet, "/v1/streams/a/nope"},
		{http.MethodPost, "/v1/streams/a/ingest/x"},
	}
	for _, tc := range targets {
		rec := do(t, s, tc.method, tc.target, "1\n2\n")
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", tc.method, tc.target, rec.Code)
			continue
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s Content-Type = %q, want application/json", tc.method, tc.target, ct)
		}
		if env := decodeEnvelope(t, rec.Body.String()); env.Error.Code != errNotFound {
			t.Errorf("%s %s code = %q, want %q", tc.method, tc.target, env.Error.Code, errNotFound)
		}
	}
	if got := s.Seen(); got != 0 {
		t.Errorf("default stream seen = %d after unrouted ingests, want 0", got)
	}
	metrics := do(t, s, http.MethodGet, "/metrics", "").Body.String()
	want := fmt.Sprintf(`streamhist_http_requests_total{path="other",code="4xx"} %d`, len(targets))
	if !strings.Contains(metrics, want) {
		t.Errorf("/metrics lacks %s", want)
	}
}

// TestStreamIsolation checks tenant separation: writes to one stream
// never show through another, listings see every live key, and unknown
// or malformed keys answer a 404 envelope naming the stream.
func TestStreamIsolation(t *testing.T) {
	s := newTestServer(t)
	if rec := do(t, s, http.MethodPost, "/v1/streams/alpha/ingest", "1\n2\n3\n"); rec.Code != http.StatusOK {
		t.Fatalf("alpha ingest: %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodPost, "/v1/streams/beta/ingest", "10\n"); rec.Code != http.StatusOK {
		t.Fatalf("beta ingest: %d: %s", rec.Code, rec.Body)
	}
	seen := func(key string) int64 {
		t.Helper()
		rec := do(t, s, http.MethodGet, "/v1/streams/"+key+"/stats", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s stats: %d: %s", key, rec.Code, rec.Body)
		}
		var st struct {
			Seen int64 `json:"seen"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.Seen
	}
	if a, b, d := seen("alpha"), seen("beta"), seen(DefaultStream); a != 3 || b != 1 || d != 0 {
		t.Fatalf("seen alpha=%d beta=%d default=%d, want 3/1/0", a, b, d)
	}

	rec := do(t, s, http.MethodGet, "/v1/streams", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("list: %d: %s", rec.Code, rec.Body)
	}
	var list struct {
		Streams []string `json:"streams"`
		Count   int      `json:"count"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "beta", "default"}
	if list.Count != 3 || fmt.Sprint(list.Streams) != fmt.Sprint(want) {
		t.Fatalf("streams = %v (count %d), want %v", list.Streams, list.Count, want)
	}

	// Unknown key: 404 in the stream envelope, with the key attributed.
	rec = do(t, s, http.MethodGet, "/v1/streams/ghost/stats", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown stream: %d, want 404: %s", rec.Code, rec.Body)
	}
	env := decodeStreamEnvelope(t, rec.Body.String())
	if env.Error.Code != errUnknownStream || env.Error.Stream != "ghost" {
		t.Errorf("unknown-stream envelope = %+v", env.Error)
	}
	// Syntactically invalid key: also 404 — it can never name a stream.
	rec = do(t, s, http.MethodGet, "/v1/streams/no!pe/stats", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("invalid key: %d, want 404: %s", rec.Code, rec.Body)
	}
	if env := decodeStreamEnvelope(t, rec.Body.String()); env.Error.Stream != "no!pe" {
		t.Errorf("invalid-key envelope stream = %q", env.Error.Stream)
	}
	// Over-long key: same contract.
	long := strings.Repeat("k", 129)
	if rec := do(t, s, http.MethodGet, "/v1/streams/"+long+"/stats", ""); rec.Code != http.StatusNotFound {
		t.Errorf("129-char key: %d, want 404", rec.Code)
	}
}

// TestStreamsPagination walks GET /v1/streams with a small limit and
// checks the after/next cursor protocol reassembles exactly the sorted
// key set.
func TestStreamsPagination(t *testing.T) {
	s := newTestServer(t)
	want := []string{DefaultStream}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("t%02d", i)
		want = append(want, key)
		if rec := do(t, s, http.MethodPost, "/v1/streams/"+key+"/ingest", "1\n"); rec.Code != http.StatusOK {
			t.Fatalf("ingest %s: %d", key, rec.Code)
		}
	}
	var got []string
	after := ""
	for page := 0; ; page++ {
		if page > len(want) {
			t.Fatal("cursor walk does not terminate")
		}
		target := "/v1/streams?limit=4"
		if after != "" {
			target += "&after=" + after
		}
		rec := do(t, s, http.MethodGet, target, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("page %d: %d: %s", page, rec.Code, rec.Body)
		}
		var resp struct {
			Streams []string `json:"streams"`
			Count   int      `json:"count"`
			Next    string   `json:"next"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Count != len(resp.Streams) || resp.Count > 4 {
			t.Fatalf("page %d: count %d for %d streams", page, resp.Count, len(resp.Streams))
		}
		got = append(got, resp.Streams...)
		if resp.Next == "" {
			break
		}
		after = resp.Next
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cursor walk = %v, want %v", got, want)
	}

	if rec := do(t, s, http.MethodGet, "/v1/streams?limit=zero", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("bad limit: %d, want 400", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/v1/streams?limit=-1", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("negative limit: %d, want 400", rec.Code)
	}
}

// TestStreamDelete checks DELETE /v1/streams/{key}: the tenant is gone
// (404 afterwards), the reserved default stream is recreated empty, and
// on a durable server the tombstone survives a restart.
func TestStreamDelete(t *testing.T) {
	s := newTestServer(t)
	if rec := do(t, s, http.MethodPost, "/v1/streams/tenant/ingest", "1\n2\n"); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d", rec.Code)
	}
	rec := do(t, s, http.MethodDelete, "/v1/streams/tenant", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodGet, "/v1/streams/tenant/stats", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("stats after delete: %d, want 404", rec.Code)
	}
	if rec := do(t, s, http.MethodDelete, "/v1/streams/tenant", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("double delete: %d, want 404", rec.Code)
	}

	// Deleting the default stream drops its data but the key survives:
	// the default stream always exists.
	if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n3\n"); rec.Code != http.StatusOK {
		t.Fatalf("default ingest: %d", rec.Code)
	}
	if rec := do(t, s, http.MethodDelete, "/v1/streams/"+DefaultStream, ""); rec.Code != http.StatusOK {
		t.Fatalf("delete default: %d: %s", rec.Code, rec.Body)
	}
	if got := s.Seen(); got != 0 {
		t.Fatalf("default stream seen = %d after delete, want 0", got)
	}
	if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "9\n"); rec.Code != http.StatusOK {
		t.Fatalf("default ingest after default delete: %d", rec.Code)
	}
}

// TestStreamDeleteDurable checks the tombstone is a WAL record: a
// deleted tenant stays deleted across a crash-free restart while a
// surviving tenant's data comes back.
func TestStreamDeleteDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(crashOptions(dir, faults.OS{}))
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, http.MethodPost, "/v1/streams/doomed/ingest", "1\n2\n"); rec.Code != http.StatusOK {
		t.Fatalf("doomed ingest: %d", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/v1/streams/kept/ingest", "1\n2\n3\n"); rec.Code != http.StatusOK {
		t.Fatalf("kept ingest: %d", rec.Code)
	}
	if rec := do(t, s, http.MethodDelete, "/v1/streams/doomed", ""); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d: %s", rec.Code, rec.Body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(crashOptions(dir, faults.OS{}))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec := do(t, s2, http.MethodGet, "/v1/streams/doomed/stats", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("doomed after restart: %d, want 404", rec.Code)
	}
	rec := do(t, s2, http.MethodGet, "/v1/streams/kept/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("kept after restart: %d: %s", rec.Code, rec.Body)
	}
	var st struct {
		Seen int64 `json:"seen"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Seen != 3 {
		t.Fatalf("kept seen after restart = %d, want 3", st.Seen)
	}
}

// TestStreamQuota checks Options.MaxKeys: creating one stream over the cap
// answers 429/quota_exceeded without creating anything, and deleting a
// stream frees its slot.
func TestStreamQuota(t *testing.T) {
	s, err := Open(Options{Window: 8, Buckets: 2, Eps: 0.2, Delta: 0.2, MaxKeys: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The reserved default stream holds slot one.
	if rec := do(t, s, http.MethodPost, "/v1/streams/a/ingest", "1\n"); rec.Code != http.StatusOK {
		t.Fatalf("a ingest: %d: %s", rec.Code, rec.Body)
	}
	rec := do(t, s, http.MethodPost, "/v1/streams/b/ingest", "1\n")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota ingest: %d, want 429: %s", rec.Code, rec.Body)
	}
	env := decodeStreamEnvelope(t, rec.Body.String())
	if env.Error.Code != errQuotaExceeded || env.Error.Stream != "b" {
		t.Fatalf("quota envelope = %+v", env.Error)
	}
	if rec := do(t, s, http.MethodGet, "/v1/streams/b/stats", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("refused stream exists: %d, want 404", rec.Code)
	}
	// Deleting a stream frees its quota slot.
	if rec := do(t, s, http.MethodDelete, "/v1/streams/a", ""); rec.Code != http.StatusOK {
		t.Fatalf("delete a: %d", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/v1/streams/b/ingest", "1\n"); rec.Code != http.StatusOK {
		t.Fatalf("b ingest after freeing a slot: %d: %s", rec.Code, rec.Body)
	}
}

// TestKeyInflightLimit checks per-tenant overload isolation: with
// KeyInflight 1, a second concurrent request for the same key answers a
// fast 429/overloaded while the first is still in flight — and other
// streams on other shards are untouched by the cap (the server-wide
// MaxInflight is far away).
func TestKeyInflightLimit(t *testing.T) {
	s, err := Open(Options{Window: 8, Buckets: 2, Eps: 0.2, Delta: 0.2,
		Shards: 1, KeyInflight: 1, Logger: quietLogger})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Park the shard loop at the apply failpoint so the first request
	// holds its key slot for as long as the test needs.
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.eng.SetFailpoint(func(point string) {
		if point == "ingest.apply" {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
	})
	defer s.eng.SetFailpoint(nil)

	first := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/streams/busy/ingest", strings.NewReader("1\n")))
		first <- rec.Code
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first ingest never reached the shard loop")
	}

	rec := do(t, s, http.MethodPost, "/v1/streams/busy/ingest", "2\n")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("concurrent same-key ingest: %d, want 429: %s", rec.Code, rec.Body)
	}
	env := decodeStreamEnvelope(t, rec.Body.String())
	if env.Error.Code != errOverloaded || env.Error.Stream != "busy" {
		t.Fatalf("busy envelope = %+v", env.Error)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first ingest: %d, want 200", code)
	}
	// The slot is free again.
	if rec := do(t, s, http.MethodPost, "/v1/streams/busy/ingest", "3\n"); rec.Code != http.StatusOK {
		t.Fatalf("ingest after release: %d", rec.Code)
	}
}

// TestFactoryEquivalence pins the Go-API contract: a server whose
// streams come from a caller-supplied Options.Factory behaves exactly
// like the plain constructor with the same window parameters, and a
// factory that cannot build a stream fails Open, not the first request.
func TestFactoryEquivalence(t *testing.T) {
	plain := newTestServer(t) // New(64, 4, 0.2, 0.2)
	viaFactory, err := Open(Options{Factory: defaultFactory(Options{Window: 64, Buckets: 4, Eps: 0.2, Delta: 0.2})})
	if err != nil {
		t.Fatal(err)
	}
	defer viaFactory.Close()

	var body strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&body, "%d\n", i%17)
	}
	for _, s := range []*Server{plain, viaFactory} {
		if rec := do(t, s, http.MethodPost, "/v1/streams/x/ingest", body.String()); rec.Code != http.StatusOK {
			t.Fatalf("ingest: %d: %s", rec.Code, rec.Body)
		}
	}
	for _, path := range []string{"/v1/streams/x/histogram", "/v1/streams/x/stats", "/v1/streams/x/quantile?phi=0.5"} {
		a := do(t, plain, http.MethodGet, path, "")
		b := do(t, viaFactory, http.MethodGet, path, "")
		if a.Code != http.StatusOK || b.Code != http.StatusOK {
			t.Fatalf("%s: codes %d/%d", path, a.Code, b.Code)
		}
		if a.Body.String() != b.Body.String() {
			t.Errorf("%s differs between plain and factory servers:\n%s\n%s", path, a.Body, b.Body)
		}
	}

	// Open builds the default stream with the factory, so a factory that
	// cannot build streams fails Open.
	errNoStream := errors.New("factory cannot build a stream")
	_, err = Open(Options{Factory: func(string) (*shard.State, error) { return nil, errNoStream }})
	if !errors.Is(err, errNoStream) {
		t.Fatalf("Open with a failing factory: err = %v, want %v", err, errNoStream)
	}
}

// TestTenantChurnHTTP churns streams through the HTTP surface — create,
// write, delete, repeat — and checks nothing leaks: no residual keys,
// no residual goroutines, and the default stream untouched throughout.
func TestTenantChurnHTTP(t *testing.T) {
	before := leakcheck.Take()
	s, err := Open(Options{Window: 16, Buckets: 2, Eps: 0.2, Delta: 0.2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n"); rec.Code != http.StatusOK {
		t.Fatalf("default ingest: %d", rec.Code)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("churn-%d", i)
			if rec := do(t, s, http.MethodPost, "/v1/streams/"+key+"/ingest", "1\n2\n3\n"); rec.Code != http.StatusOK {
				t.Fatalf("round %d: ingest %s: %d", round, key, rec.Code)
			}
			if rec := do(t, s, http.MethodDelete, "/v1/streams/"+key, ""); rec.Code != http.StatusOK {
				t.Fatalf("round %d: delete %s: %d", round, key, rec.Code)
			}
		}
	}
	rec := do(t, s, http.MethodGet, "/v1/streams", "")
	var list struct {
		Streams []string `json:"streams"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Streams) != 1 || list.Streams[0] != DefaultStream {
		t.Fatalf("streams after churn = %v, want just [default]", list.Streams)
	}
	if got := s.Seen(); got != 2 {
		t.Fatalf("default stream seen = %d after churn, want 2", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	leakcheck.Check(t, before)
}
