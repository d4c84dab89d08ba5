package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamhist/internal/codec"
	"streamhist/internal/shard"
)

func TestIngestOversizedBodyReturns413(t *testing.T) {
	s, err := Open(Options{Window: 8, Buckets: 2, Eps: 0.2, Delta: 0.2, MaxBody: 16, Logger: quietLogger})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", strings.Repeat("1\n", 64))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: %d, want 413: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "16") {
		t.Errorf("413 body does not name the limit: %s", rec.Body)
	}
	// A body inside the limit still works.
	if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n"); rec.Code != http.StatusOK {
		t.Errorf("in-limit ingest: %d", rec.Code)
	}
	// /restore enforces the same cap.
	rec = do(t, s, http.MethodPost, "/v1/streams/default/restore", strings.Repeat("x", 64))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized restore: %d, want 413", rec.Code)
	}
}

// gateReader is an /ingest body that signals when the handler starts
// reading it (i.e. after admission) and then blocks until released,
// pinning the in-flight slot for as long as the test needs.
type gateReader struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
	sent    bool
}

func (g *gateReader) Read(p []byte) (int, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	if g.sent {
		return 0, io.EOF
	}
	g.sent = true
	return copy(p, "1\n"), nil
}

func TestIngestOverloadReturns429(t *testing.T) {
	s, err := Open(Options{Window: 8, Buckets: 2, Eps: 0.2, Delta: 0.2, MaxInflight: 1, Logger: quietLogger})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := &gateReader{entered: make(chan struct{}), release: make(chan struct{})}
	slow := httptest.NewRequest(http.MethodPost, "/v1/streams/default/ingest", g)
	slowRec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(slowRec, slow)
	}()
	<-g.entered

	// The single slot is taken: the next ingest must be refused fast, with
	// a Retry-After hint, rather than queued behind the slow client.
	rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "2\n")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated ingest: %d, want 429: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// Reads are not subject to ingest admission.
	if rec := do(t, s, http.MethodGet, "/v1/streams/default/stats", ""); rec.Code != http.StatusOK {
		t.Errorf("stats while saturated: %d", rec.Code)
	}

	close(g.release)
	<-done
	if slowRec.Code != http.StatusOK {
		t.Fatalf("slow ingest: %d: %s", slowRec.Code, slowRec.Body)
	}
	// Slot released: ingests are admitted again.
	if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "3\n"); rec.Code != http.StatusOK {
		t.Errorf("ingest after release: %d", rec.Code)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s := newTestServer(t)
	if rec := do(t, s, http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK {
		t.Errorf("healthz: %d", rec.Code)
	}
	rec := do(t, s, http.MethodGet, "/readyz", "")
	if rec.Code != http.StatusOK {
		t.Errorf("readyz: %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "ready") {
		t.Errorf("readyz body: %s", rec.Body)
	}
	// Draining flips readiness but not liveness.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK {
		t.Errorf("healthz while draining: %d", rec.Code)
	}
	rec = do(t, s, http.MethodGet, "/readyz", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("unready readyz without Retry-After")
	}
}

func TestQueryEmptyWindowReportsEmpty(t *testing.T) {
	s := newTestServer(t)
	// Before any ingest, every query — even a malformed one — should say
	// the window is empty rather than complain about the range.
	for _, target := range []string{"/v1/streams/default/query?lo=0&hi=0", "/v1/streams/default/query", "/v1/streams/default/query?lo=a&hi=b"} {
		rec := do(t, s, http.MethodGet, target, "")
		if rec.Code != http.StatusConflict {
			t.Errorf("%s on empty window: %d, want 409", target, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "window is empty") {
			t.Errorf("%s body: %s", target, rec.Body)
		}
	}
}

// TestRestoreRoundTrip proves /restore is the inverse of /snapshot: a
// fresh daemon seeded from a snapshot serves the identical histogram.
func TestRestoreRoundTrip(t *testing.T) {
	src := newTestServer(t)
	var lines strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&lines, "%d\n", (i*13+5)%41)
	}
	if rec := do(t, src, http.MethodPost, "/v1/streams/default/ingest", lines.String()); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d", rec.Code)
	}
	snap := do(t, src, http.MethodGet, "/v1/streams/default/snapshot", "")
	if snap.Code != http.StatusOK {
		t.Fatalf("snapshot: %d", snap.Code)
	}
	wantHist := do(t, src, http.MethodGet, "/v1/streams/default/histogram", "")
	if wantHist.Code != http.StatusOK {
		t.Fatalf("source histogram: %d", wantHist.Code)
	}

	dst := newTestServer(t)
	rec := do(t, dst, http.MethodPost, "/v1/streams/default/restore", snap.Body.String())
	if rec.Code != http.StatusOK {
		t.Fatalf("restore: %d: %s", rec.Code, rec.Body)
	}
	gotHist := do(t, dst, http.MethodGet, "/v1/streams/default/histogram", "")
	if gotHist.Code != http.StatusOK {
		t.Fatalf("restored histogram: %d", gotHist.Code)
	}
	if !bytes.Equal(gotHist.Body.Bytes(), wantHist.Body.Bytes()) {
		t.Errorf("restored histogram differs:\n got %s\nwant %s", gotHist.Body, wantHist.Body)
	}
	// The restored daemon keeps ingesting from the snapshot's position.
	rec = do(t, dst, http.MethodPost, "/v1/streams/default/ingest", "7\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest after restore: %d", rec.Code)
	}
	if got := dst.Seen(); got != 101 {
		t.Errorf("seen after restore+ingest = %d, want 101", got)
	}

	// Error paths: garbage is refused without touching state.
	if rec := do(t, dst, http.MethodPost, "/v1/streams/default/restore", "not a snapshot"); rec.Code != http.StatusBadRequest {
		t.Errorf("garbage restore: %d, want 400", rec.Code)
	}
	if got := dst.Seen(); got != 101 {
		t.Errorf("failed restore changed seen to %d", got)
	}
	if rec := do(t, dst, http.MethodGet, "/v1/streams/default/restore", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET restore: %d", rec.Code)
	}
}

// TestRestoreDurable: on a durable server, an acknowledged /restore
// survives an immediate crash (the state is checkpointed and the WAL
// reset before the 200 goes out).
func TestRestoreDurable(t *testing.T) {
	src := newTestServer(t)
	do(t, src, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n3\n4\n5\n6\n7\n8\n")
	snap := do(t, src, http.MethodGet, "/v1/streams/default/snapshot", "")
	if snap.Code != http.StatusOK {
		t.Fatalf("snapshot: %d", snap.Code)
	}

	dir := t.TempDir()
	s, err := Open(crashOptions(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	do(t, s, http.MethodPost, "/v1/streams/default/ingest", "9\n9\n9\n")
	if rec := do(t, s, http.MethodPost, "/v1/streams/default/restore", snap.Body.String()); rec.Code != http.StatusOK {
		t.Fatalf("restore: %d: %s", rec.Code, rec.Body)
	}
	do(t, s, http.MethodPost, "/v1/streams/default/ingest", "10\n11\n")
	// Crash: no Close.

	s2, err := Open(crashOptions(dir, nil))
	if err != nil {
		t.Fatalf("recovery after restore: %v", err)
	}
	defer s2.Close()
	if got := s2.Seen(); got != 10 {
		t.Errorf("recovered seen = %d, want 10 (8 restored + 2 ingested)", got)
	}
	if rec := do(t, s2, http.MethodGet, "/v1/streams/default/histogram", ""); rec.Code != http.StatusOK {
		t.Errorf("histogram after recovery: %d", rec.Code)
	}
}

// TestRestoreKeepsEngine: /restore decodes into the window the server's
// factory builds for the key, so a restored stream runs the engine every
// other stream on the server runs — the same one crash recovery would
// give it at the next restart.
func TestRestoreKeepsEngine(t *testing.T) {
	src := newTestServer(t)
	do(t, src, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n3\n4\n5\n6\n7\n8\n")
	snap := do(t, src, http.MethodGet, "/v1/streams/default/snapshot", "")
	if snap.Code != http.StatusOK {
		t.Fatalf("snapshot: %d", snap.Code)
	}
	for _, tc := range []struct {
		name string
		srv  func() (*Server, error)
		incr bool
	}{
		{"default", func() (*Server, error) { return New(64, 4, 0.2, 0.2) }, false},
		{"WithIncremental", func() (*Server, error) {
			return Open(Options{Window: 64, Buckets: 4, Eps: 0.2, Delta: 0.2, Incremental: true})
		}, true},
		{"Factory", func() (*Server, error) {
			return Open(Options{Factory: defaultFactory(Options{
				Window: 64, Buckets: 4, Eps: 0.2, Delta: 0.2, Incremental: true})})
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.srv()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = s.Close() })
			if rec := do(t, s, http.MethodPost, "/v1/streams/r/restore", snap.Body.String()); rec.Code != http.StatusOK {
				t.Fatalf("restore: %d: %s", rec.Code, rec.Body)
			}
			var incr bool
			if err := s.eng.View("r", func(st *shard.State) error {
				incr = st.FW.IncrementalRebuild()
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if incr != tc.incr {
				t.Errorf("restored stream incremental = %v, want %v", incr, tc.incr)
			}
		})
	}
}

// TestRestoreIgnoresLinearScanByte: a /restore body cannot select an
// ablation engine. A hand-built SFW1 blob with the byte earlier releases
// read as the linear-scan switch restores onto the production engine —
// its warm-start and memo counters advance on the next flush — and
// serves the histogram the same blob without the byte does.
func TestRestoreIgnoresLinearScanByte(t *testing.T) {
	s := newTestServer(t)
	window := make([]float64, 48)
	for i := range window {
		window[i] = float64((i * 7) % 11)
	}
	for key, reserved := range map[string]bool{"set": true, "clean": false} {
		w := codec.NewWriter("SFW1")
		w.Int(64)
		w.Int(4)
		w.Float64(0.2)
		w.Float64(0.2)
		w.Bool(reserved)
		w.Int64(100)
		w.Floats(window)
		if rec := do(t, s, http.MethodPost, "/v1/streams/"+key+"/restore", string(w.Bytes())); rec.Code != http.StatusOK {
			t.Fatalf("restore %s: %d: %s", key, rec.Code, rec.Body)
		}
	}
	requireSameHistogram := func(ctx string) {
		t.Helper()
		set := do(t, s, http.MethodGet, "/v1/streams/set/histogram", "")
		clean := do(t, s, http.MethodGet, "/v1/streams/clean/histogram", "")
		if set.Code != http.StatusOK || !bytes.Equal(set.Body.Bytes(), clean.Body.Bytes()) {
			t.Fatalf("%s: histogram with the byte set %d %s, without %s", ctx, set.Code, set.Body, clean.Body)
		}
	}
	engineWork := func() (warm, memo int64) {
		t.Helper()
		if err := s.eng.View("set", func(st *shard.State) error {
			seeded, fallbacks := st.FW.WarmStats()
			hits, misses := st.FW.MemoStats()
			warm, memo = seeded+fallbacks, hits+misses
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return warm, memo
	}
	requireSameHistogram("restored")
	warm0, memo0 := engineWork()
	for _, key := range []string{"set", "clean"} {
		if rec := do(t, s, http.MethodPost, "/v1/streams/"+key+"/ingest", "3\n"); rec.Code != http.StatusOK {
			t.Fatalf("ingest %s: %d", key, rec.Code)
		}
	}
	requireSameHistogram("flushed")
	if warm1, memo1 := engineWork(); warm1 == warm0 || memo1 == memo0 {
		t.Errorf("flush ran no warm-started, memoized CreateList: warm %d -> %d, memo %d -> %d",
			warm0, warm1, memo0, memo1)
	}
}

// TestConcurrentIngestCheckpointStress runs parallel ingests, queries and
// checkpoints against a durable server (run under -race), then closes and
// reopens it, verifying no acknowledged value was lost.
func TestConcurrentIngestCheckpointStress(t *testing.T) {
	dir := t.TempDir()
	opts := crashOptions(dir, nil)
	opts.CheckpointInterval = 2 * time.Millisecond
	opts.SegmentBytes = 1 << 10 // force frequent rotation
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}

	var acked atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				switch id % 3 {
				case 0, 1:
					body := fmt.Sprintf("%d\n%d\n", (id+i)%17, (id*i)%17)
					rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", body)
					switch rec.Code {
					case http.StatusOK:
						acked.Add(2)
					case http.StatusTooManyRequests:
						// Legitimate under load; nothing was applied.
					default:
						t.Errorf("ingest: %d: %s", rec.Code, rec.Body)
					}
				case 2:
					do(t, s, http.MethodGet, "/v1/streams/default/histogram", "")
					do(t, s, http.MethodGet, "/v1/streams/default/stats", "")
					do(t, s, http.MethodGet, "/readyz", "")
					if err := s.Checkpoint(); err != nil {
						t.Errorf("manual checkpoint: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2, err := Open(crashOptions(dir, nil))
	if err != nil {
		t.Fatalf("reopen after stress: %v", err)
	}
	defer s2.Close()
	if got, want := s2.Seen(), acked.Load(); got != want {
		t.Errorf("recovered seen = %d, want %d acknowledged values", got, want)
	}
	if rec := do(t, s2, http.MethodPost, "/v1/streams/default/ingest", "1\n"); rec.Code != http.StatusOK {
		t.Errorf("ingest after reopen: %d", rec.Code)
	}
}
