package server

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"streamhist/internal/errs"
	"streamhist/internal/faults"
	"streamhist/internal/obs"
	"streamhist/internal/trace"
)

// resilientOptions is crashOptions plus a millisecond-scale breaker so
// degraded-mode tests converge quickly.
func resilientOptions(dir string, fsys faults.FS) Options {
	o := crashOptions(dir, fsys)
	o.BreakerThreshold = 2
	o.BreakerBackoff = 2 * time.Millisecond
	o.BreakerMaxBackoff = 20 * time.Millisecond
	return o
}

func ingestResp(t *testing.T, rec *httptest.ResponseRecorder) (degraded bool) {
	t.Helper()
	var resp struct {
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("unparseable ingest response %q: %v", rec.Body, err)
	}
	return resp.Degraded
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDegradedModeAndReanchor drives the full self-healing cycle: WAL
// appends start failing, the breaker trips into degraded mode (ingests
// acknowledged memory-only with "degraded":true), the disk heals, the
// upkeep loop re-anchors, and every point — including the degraded ones —
// is durable across a restart.
func TestDegradedModeAndReanchor(t *testing.T) {
	dir := t.TempDir()
	chaos := faults.NewChaos(faults.OS{}, 1)
	reg := obs.NewRegistry()
	tr, err := trace.New(256)
	if err != nil {
		t.Fatal(err)
	}
	opts := resilientOptions(dir, chaos)
	opts.Metrics = reg
	opts.Trace = tr
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n"); rec.Code != http.StatusOK || ingestResp(t, rec) {
		t.Fatalf("healthy ingest: %d %s", rec.Code, rec.Body)
	}

	// The disk goes bad for WAL traffic only.
	chaos.SetRules(faults.Rule{Ops: faults.OpCreate | faults.OpWrite | faults.OpSync, PathContains: "wal-", Prob: 1})
	for i := 0; i < 2; i++ { // threshold 2: both fail durable, second trips
		if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "3\n"); rec.Code != http.StatusInternalServerError && !(rec.Code == http.StatusOK && ingestResp(t, rec)) {
			t.Fatalf("ingest %d while disk sick: %d %s", i, rec.Code, rec.Body)
		}
	}
	waitFor(t, "degraded mode", func() bool { return s.eng.Degraded() })

	// Degraded: ingests still flow, marked non-durable.
	rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "4\n5\n")
	if rec.Code != http.StatusOK || !ingestResp(t, rec) {
		t.Fatalf("degraded ingest: %d %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"degraded":true`) {
		t.Fatalf("healthz while degraded: %d %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodGet, "/readyz", ""); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"degraded":true`) {
		t.Fatalf("readyz while degraded (degrade policy stays ready): %d %s", rec.Code, rec.Body)
	}

	// The disk heals; the upkeep loop's next probe re-anchors.
	chaos.Clear()
	waitFor(t, "reanchor", func() bool { return !s.eng.Degraded() })
	if got := s.eng.ShardStatuses()[s.eng.ShardFor(DefaultStream)].Breaker; got != "closed" {
		t.Errorf("breaker after recovery: %v", got)
	}
	if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "6\n"); rec.Code != http.StatusOK || ingestResp(t, rec) {
		t.Fatalf("post-recovery ingest not durable: %d %s", rec.Code, rec.Body)
	}
	seen := s.Seen()

	// Breaker transitions are observable in /metrics and the trace ring.
	mrec := do(t, s, http.MethodGet, "/metrics", "")
	for _, want := range []string{
		`streamhist_breaker_transitions_total{from="closed",to="open"} `,
		`streamhist_breaker_transitions_total{from="half_open",to="closed"} `,
		// 3 = 1 point riding the batch that tripped the breaker + the
		// 2-point batch ingested while degraded.
		"streamhist_degraded_points_total 3",
		"streamhist_reanchors_total 1",
	} {
		if !strings.Contains(mrec.Body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	events := tr.Snapshot()
	var sawBreaker bool
	for _, ev := range events {
		if ev.Type == trace.EvBreaker {
			sawBreaker = true
		}
	}
	if !sawBreaker {
		t.Error("no EvBreaker event in the trace ring")
	}

	// Crash-restart: the re-anchored checkpoint covers the degraded
	// points, so nothing acknowledged after recovery is lost.
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	s2, err := Open(crashOptions(dir, faults.OS{}))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Seen(); got != seen {
		t.Errorf("recovered seen=%d, want %d (degraded points must survive the re-anchor)", got, seen)
	}
}

// TestRefusePolicy: with OnPersistRefuse the degraded server refuses
// ingests with 503/degraded and flips /readyz, preserving "every 200 is
// durable".
func TestRefusePolicy(t *testing.T) {
	dir := t.TempDir()
	chaos := faults.NewChaos(faults.OS{}, 1)
	opts := resilientOptions(dir, chaos)
	opts.OnPersistError = OnPersistRefuse
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	chaos.SetRules(faults.Rule{Ops: faults.OpCreate | faults.OpWrite | faults.OpSync, PathContains: "wal-", Prob: 1})
	for i := 0; i < 2; i++ {
		if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n"); rec.Code != http.StatusInternalServerError {
			t.Fatalf("ingest %d while disk sick: %d %s", i, rec.Code, rec.Body)
		}
	}
	waitFor(t, "degraded mode", func() bool { return s.eng.Degraded() })
	rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "2\n")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), errDegraded) {
		t.Fatalf("refuse-policy ingest: %d %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("degraded refusal missing Retry-After")
	}
	if rec := do(t, s, http.MethodGet, "/readyz", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz under refuse policy while degraded: %d", rec.Code)
	}
	if s.Seen() != 0 {
		t.Errorf("refused ingests advanced seen to %d", s.Seen())
	}

	chaos.Clear()
	waitFor(t, "reanchor", func() bool { return !s.eng.Degraded() })
	if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "3\n"); rec.Code != http.StatusOK {
		t.Fatalf("post-recovery ingest: %d %s", rec.Code, rec.Body)
	}
}

func TestOpenRejectsUnknownPolicy(t *testing.T) {
	_, err := Open(Options{Window: 8, Buckets: 2, Eps: 0.2, Delta: 0.2, OnPersistError: "explode"})
	if err == nil {
		t.Fatal("Open accepted an unknown OnPersistError policy")
	}
}

// TestOpenRejectsNonFiniteEpsDelta: a NaN or infinite eps or delta fails
// Open with the sentinel error. Accepted, it would be written into every
// checkpoint, which the codec refuses, so the next Open of the same data
// dir would fail instead.
func TestOpenRejectsNonFiniteEpsDelta(t *testing.T) {
	for _, tc := range []struct {
		name       string
		eps, delta float64
		want       error
	}{
		{"eps NaN", math.NaN(), 0.1, errs.ErrBadEpsilon},
		{"eps +Inf", math.Inf(1), 0.1, errs.ErrBadEpsilon},
		{"delta NaN", 0.1, math.NaN(), errs.ErrBadDelta},
		{"delta +Inf", 0.1, math.Inf(1), errs.ErrBadDelta},
	} {
		s, err := Open(Options{Window: 8, Buckets: 2, Eps: tc.eps, Delta: tc.delta,
			DataDir: t.TempDir(), Logger: quietLogger})
		if err == nil {
			_ = s.Close()
			t.Errorf("%s: Open succeeded", tc.name)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: Open error %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestCheckpointWatchdogEscalates: checkpoints keep failing while the
// WAL keeps growing, so the loop escalates to degraded mode; when the
// disk heals the upkeep loop re-anchors (which both checkpoints and
// truncates) and the server converges back to healthy.
func TestCheckpointWatchdogEscalates(t *testing.T) {
	dir := t.TempDir()
	chaos := faults.NewChaos(faults.OS{}, 1)
	opts := resilientOptions(dir, chaos)
	opts.CheckpointInterval = 3 * time.Millisecond
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Checkpoints fail; the WAL itself stays healthy and keeps growing.
	chaos.SetRules(faults.Rule{Ops: faults.OpAll, PathContains: "checkpoint-", Prob: 1})
	waitFor(t, "watchdog escalation", func() bool {
		if s.eng.Degraded() {
			return true
		}
		rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n3\n")
		return rec.Code == http.StatusOK && ingestResp(t, rec)
	})

	chaos.Clear()
	waitFor(t, "recovery", func() bool { return !s.eng.Degraded() })
	if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "9\n"); rec.Code != http.StatusOK || ingestResp(t, rec) {
		t.Fatalf("post-recovery ingest: %d %s", rec.Code, rec.Body)
	}
}

// TestCheckpointPruneFailureCounted (satellite): a disk that refuses
// deletes doesn't fail the checkpoint — the snapshot is durable — but
// the prune failure is counted instead of silently dropped.
func TestCheckpointPruneFailureCounted(t *testing.T) {
	dir := t.TempDir()
	chaos := faults.NewChaos(faults.OS{}, 1)
	reg := obs.NewRegistry()
	opts := resilientOptions(dir, chaos)
	opts.Metrics = reg
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Three checkpoints at distinct positions: the third prunes the first.
	for i := 0; i < 3; i++ {
		if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n"); rec.Code != http.StatusOK {
			t.Fatalf("ingest: %d", rec.Code)
		}
		if i == 2 {
			chaos.SetRules(faults.Rule{Ops: faults.OpRemove, PathContains: "checkpoint-", Prob: 1})
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	if got := reg.Counter("streamhist_checkpoint_failures_total", "").Value(); got == 0 {
		t.Error("prune failure not counted in checkpoint failures")
	}
	chaos.Clear()
}

func TestRetryAfterSecondsBounds(t *testing.T) {
	rnds := []float64{0, 0.25, 0.5, 0.75, 0.999}
	for used := 0; used <= 64; used += 8 {
		for _, r := range rnds {
			got := retryAfterSeconds(used, 64, func() float64 { return r })
			if got < 1 || got > maxRetryAfterSeconds {
				t.Fatalf("retryAfterSeconds(%d, 64, %g) = %d out of [1,%d]", used, r, got, maxRetryAfterSeconds)
			}
		}
	}
	// Unsaturated is gentle, saturated pushes back hard.
	if got := retryAfterSeconds(0, 64, func() float64 { return 0.5 }); got != 1 {
		t.Errorf("idle server Retry-After = %d, want 1", got)
	}
	if got := retryAfterSeconds(64, 64, func() float64 { return 0.5 }); got != maxRetryAfterSeconds {
		t.Errorf("saturated server Retry-After = %d, want %d", got, maxRetryAfterSeconds)
	}
	// Degenerate capacity still stays in bounds.
	if got := retryAfterSeconds(3, 0, func() float64 { return 0.5 }); got < 1 || got > maxRetryAfterSeconds {
		t.Errorf("zero-capacity Retry-After = %d", got)
	}
}

// TestPanicOutsideLockContained: a panic before the critical section is
// converted to the JSON error envelope; the state is untouched, so no
// quarantine.
func TestPanicOutsideLockContained(t *testing.T) {
	s := newTestServer(t)
	s.failpoint = func(p string) {
		if p == "ingest.before-lock" {
			panic("boom")
		}
	}
	rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n")
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), `"code":"internal"`) {
		t.Fatalf("contained panic response: %d %s", rec.Code, rec.Body)
	}
	if s.eng.Quarantined() {
		t.Fatal("panic outside the lock must not quarantine")
	}
	s.failpoint = nil
	if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n"); rec.Code != http.StatusOK {
		t.Fatalf("ingest after contained panic: %d", rec.Code)
	}
}

// TestPanicUnderLockQuarantines: a panic mid-apply — the ingest.apply
// failpoint fires in the shard loop under the shard's write lock, as the
// logged request is queued on its stream — releases the lock (no
// deadlock), quarantines the shard, refuses mutations with
// 503/quarantined, flips /healthz unhealthy — and keeps serving reads,
// including of the very stream whose apply panicked. The panicking batch
// itself is answered, not left hanging: the shard loop catches the
// quarantine and fails every request riding the batch.
func TestPanicUnderLockQuarantines(t *testing.T) {
	s := newTestServer(t)
	if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n3\n"); rec.Code != http.StatusOK {
		t.Fatalf("seed ingest: %d", rec.Code)
	}
	s.eng.SetFailpoint(func(p string) {
		if p == "ingest.apply" {
			panic("corrupting boom")
		}
	})
	rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "4\n")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), errQuarantined) {
		t.Fatalf("lock-held panic response: %d %s", rec.Code, rec.Body)
	}
	if !s.eng.Quarantined() {
		t.Fatal("lock-held panic did not quarantine")
	}
	// The shard lock was released: a read of the same stream, which looks
	// it up under the shard lock and then takes its stream lock, answers.
	if rec := do(t, s, http.MethodGet, "/v1/streams/default/stats", ""); rec.Code != http.StatusOK {
		t.Fatalf("stats while quarantined (mutex leaked?): %d", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/healthz", ""); rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "quarantined") {
		t.Fatalf("healthz while quarantined: %d %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodGet, "/readyz", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while quarantined: %d", rec.Code)
	}
	s.eng.SetFailpoint(nil)
	if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "5\n"); rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), errQuarantined) {
		t.Fatalf("ingest while quarantined: %d %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodPost, "/v1/streams/default/restore", "junk"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("restore while quarantined: %d", rec.Code)
	}
}

// TestPanicAutoRestore: with RestoreOnPanic and a data dir, a
// quarantined server rebuilds its state from the last checkpoint plus
// WAL replay in the background and resumes serving writes. The batch
// whose apply panicked was already in the WAL, so the restore replays
// it — the log, not the half-mutated memory, is the source of truth.
// The swap discards the quarantined states, so the endpoint gauge must
// count only the restored ones.
func TestPanicAutoRestore(t *testing.T) {
	dir := t.TempDir()
	opts := resilientOptions(dir, faults.OS{})
	opts.RestoreOnPanic = true
	reg := obs.NewRegistry()
	opts.Metrics = reg
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n3\n"); rec.Code != http.StatusOK {
		t.Fatalf("seed ingest: %d", rec.Code)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.eng.SetFailpoint(func(p string) {
		if p == "ingest.apply" {
			panic("one-shot boom")
		}
	})
	if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "4\n5\n"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("lock-held panic response: %d", rec.Code)
	}
	s.eng.SetFailpoint(nil)
	waitFor(t, "auto-restore", func() bool { return !s.eng.Quarantined() })
	// The panicked batch reached the WAL before the apply, so the
	// restored state includes it.
	if got := s.Seen(); got != 5 {
		t.Fatalf("restored seen=%d, want 5", got)
	}
	if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "6\n"); rec.Code != http.StatusOK {
		t.Fatalf("ingest after auto-restore: %d %s", rec.Code, rec.Body)
	}
	if got := s.Seen(); got != 6 {
		t.Fatalf("seen after resumed ingest=%d, want 6", got)
	}
	requireEndpointTotal(t, s, reg, "after auto-restore", DefaultStream)
}
