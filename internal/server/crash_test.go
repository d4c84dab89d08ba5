package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"streamhist/internal/core"
	"streamhist/internal/faults"
	"streamhist/internal/shard"
)

// The crash-point workload: window smaller than the stream so recovery
// exercises a slid window, integer values so prefix sums are exact and
// recovered state can be compared bit-for-bit against a fresh maintainer.
const (
	cwWindow  = 16
	cwBuckets = 4
	cwEps     = 0.2
)

func crashBatches() [][]float64 {
	out := make([][]float64, 12)
	x := 0
	for i := range out {
		b := make([]float64, 4)
		for j := range b {
			b[j] = float64((x*37 + 11) % 23)
			x++
		}
		out[i] = b
	}
	return out
}

func batchBody(b []float64) string {
	var sb strings.Builder
	for _, v := range b {
		fmt.Fprintf(&sb, "%g\n", v)
	}
	return sb.String()
}

// quietLogger drops all records; tests that exercise fault paths would
// otherwise spam the output. (slog.DiscardHandler is 1.24+; the repo
// targets 1.22.)
var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// crashOptions pins Shards to 1 so fault-op counting stays deterministic
// regardless of GOMAXPROCS; sharded layouts get their own coverage in
// internal/shard and the chaos soak.
func crashOptions(dir string, fsys faults.FS) Options {
	return Options{
		Window: cwWindow, Buckets: cwBuckets, Eps: cwEps, Delta: cwEps,
		Shards: 1, DataDir: dir, FS: fsys, SyncEveryAppend: true, Logger: quietLogger,
	}
}

// openTolerant is Open for fault-matrix workloads: an injected crash can
// land inside Open itself (the shard layout and WAL stripes are born
// there), in which case nothing was acknowledged and the workload simply
// ends. Any other open failure is fatal.
func openTolerant(t *testing.T, opts Options, fsys faults.FS) *Server {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		if inj, ok := fsys.(*faults.Injector); ok && inj.Tripped() {
			return nil
		}
		t.Fatalf("initial open: %v", err)
	}
	return s
}

// runWorkload drives one daemon lifetime: 12 ingest batches with manual
// checkpoints after batches 4 and 8, never Closing — the "process" ends
// by crashing. It returns the number of durably acknowledged values:
// after the injected fault fires, ingests fail with 500 until the
// breaker trips, then are acknowledged with "degraded":true — an
// explicit non-durability marker — and neither kind counts.
func runWorkload(t *testing.T, dir string, fsys faults.FS) (acked int) {
	t.Helper()
	s := openTolerant(t, crashOptions(dir, fsys), fsys)
	if s == nil {
		return 0
	}
	// The "crash": stop the shard loops without the graceful final
	// checkpoint, leaving only what already reached disk.
	defer s.eng.Abort()
	for i, b := range crashBatches() {
		rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", batchBody(b))
		switch rec.Code {
		case http.StatusOK:
			var resp struct {
				Degraded bool `json:"degraded"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("batch %d: unparseable ingest response %q: %v", i, rec.Body, err)
			}
			if !resp.Degraded {
				acked += len(b)
			}
		case http.StatusInternalServerError, http.StatusServiceUnavailable:
			// Post-fault: the WAL refused the batch (or the refuse policy
			// turned it away); nothing durable was acknowledged.
		default:
			t.Fatalf("batch %d: unexpected status %d: %s", i, rec.Code, rec.Body)
		}
		if i == 3 || i == 7 {
			_ = s.Checkpoint() // expected to fail after the fault
		}
	}
	return acked
}

// expectEqualState asserts the recovered server's window state is
// identical to a fresh FixedWindow fed prefix.
func expectEqualState(t *testing.T, s *Server, prefix []float64) {
	t.Helper()
	ref, err := core.NewWithDelta(cwWindow, cwBuckets, cwEps, cwEps)
	if err != nil {
		t.Fatal(err)
	}
	ref.PushBatch(prefix)
	var (
		gotSeen int64
		gotWin  []float64
	)
	if verr := s.eng.View(DefaultStream, func(st *shard.State) error {
		gotSeen = st.FW.Seen()
		gotWin = st.FW.Window()
		return nil
	}); verr != nil {
		t.Fatalf("view default stream: %v", verr)
	}
	if gotSeen != int64(len(prefix)) {
		t.Fatalf("recovered seen=%d, want %d", gotSeen, len(prefix))
	}
	if !reflect.DeepEqual(gotWin, ref.Window()) {
		t.Fatalf("recovered window %v\nwant %v", gotWin, ref.Window())
	}
	if len(prefix) == 0 {
		return
	}
	refRes, err := ref.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	var gotRes *core.Result
	if verr := s.eng.View(DefaultStream, func(st *shard.State) error {
		var herr error
		gotRes, herr = st.FW.Histogram()
		return herr
	}); verr != nil {
		t.Fatalf("recovered histogram: %v", verr)
	}
	if !reflect.DeepEqual(gotRes.Histogram, refRes.Histogram) || gotRes.SSE != refRes.SSE {
		t.Fatalf("recovered histogram %+v (sse=%g)\nwant %+v (sse=%g)",
			gotRes.Histogram, gotRes.SSE, refRes.Histogram, refRes.SSE)
	}
	// And the HTTP surface serves it.
	if rec := do(t, s, http.MethodGet, "/v1/streams/default/histogram", ""); rec.Code != http.StatusOK {
		t.Fatalf("/histogram after recovery: %d", rec.Code)
	}
}

// TestCrashRecoveryMatrix injects a crash at every filesystem mutation of
// the whole workload — each WAL create/append/fsync, each checkpoint
// write/rename/dir-sync, each rotation and truncation — and proves that
// restarting from the surviving files yields a window identical to a
// fresh maintainer fed the un-lost prefix of the stream. The durability
// contract under fsync-every-append: no acknowledged batch is ever lost;
// at most the single in-flight unacknowledged batch may additionally
// survive (crash after its record reached the log, before the ack).
func TestCrashRecoveryMatrix(t *testing.T) {
	batches := crashBatches()
	var allValues []float64
	for _, b := range batches {
		allValues = append(allValues, b...)
	}
	const batchLen = 4

	// Probe pass: no fault, count the mutating filesystem operations.
	probe := faults.NewInjector(faults.OS{}, -1)
	if acked := runWorkload(t, t.TempDir(), probe); acked != len(allValues) {
		t.Fatalf("probe run acked %d of %d", acked, len(allValues))
	}
	total := probe.Ops()
	if total < 20 {
		t.Fatalf("probe counted implausibly few crash points: %d", total)
	}
	t.Logf("crash-point matrix: %d injected fault points", total)

	for n := 1; n <= total; n++ {
		t.Run(fmt.Sprintf("op%03d", n), func(t *testing.T) {
			dir := t.TempDir()
			inj := faults.NewInjector(faults.OS{}, n)
			acked := runWorkload(t, dir, inj)
			if !inj.Tripped() {
				t.Fatal("fault never fired")
			}
			// The crash: the first server is abandoned un-Closed. Restart
			// from disk through a clean filesystem.
			s2, err := Open(crashOptions(dir, faults.OS{}))
			if err != nil {
				t.Fatalf("recovery after fault at op %d: %v", n, err)
			}
			defer s2.Close()
			recSeen := int(s2.Seen())
			if recSeen < acked {
				t.Fatalf("durability violated: recovered seen=%d < acknowledged %d", recSeen, acked)
			}
			if recSeen > acked+batchLen {
				t.Fatalf("recovered seen=%d, but only %d acked (+%d in flight max)", recSeen, acked, batchLen)
			}
			expectEqualState(t, s2, allValues[:recSeen])

			// The recovered daemon must be fully serviceable.
			if rec := do(t, s2, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n"); rec.Code != http.StatusOK {
				t.Fatalf("ingest after recovery: %d: %s", rec.Code, rec.Body)
			}
			if err := s2.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after recovery: %v", err)
			}
		})
	}
}

// TestGracefulShutdownRoundTrip: a clean Close persists everything; a
// reopened daemon continues exactly where the old one stopped, and the
// draining daemon refuses writes.
func TestGracefulShutdownRoundTrip(t *testing.T) {
	dir := t.TempDir()
	batches := crashBatches()
	s, err := Open(crashOptions(dir, faults.OS{}))
	if err != nil {
		t.Fatal(err)
	}
	var all []float64
	for _, b := range batches {
		if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", batchBody(b)); rec.Code != http.StatusOK {
			t.Fatalf("ingest: %d", rec.Code)
		}
		all = append(all, b...)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Draining: reads still served, writes refused, readiness 503.
	if rec := do(t, s, http.MethodGet, "/readyz", ""); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("ingest while draining: %d", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/v1/streams/default/histogram", ""); rec.Code != http.StatusOK {
		t.Errorf("histogram while draining: %d", rec.Code)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}

	s2, err := Open(crashOptions(dir, faults.OS{}))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	expectEqualState(t, s2, all)
	if rec := do(t, s2, http.MethodGet, "/readyz", ""); rec.Code != http.StatusOK {
		t.Errorf("readyz after reopen: %d", rec.Code)
	}
}

// TestCrashRecoveryExtendedMatrix is the rotation-and-prune variant of
// the matrix: tiny segments force mid-workload rotations (including the
// rotate buried inside Append), and three manual checkpoints activate
// pruning, so the injected crash points additionally land inside
// segment creation at rotate, prune removes, and extra truncations.
func TestCrashRecoveryExtendedMatrix(t *testing.T) {
	batches := crashBatches()
	var allValues []float64
	for _, b := range batches {
		allValues = append(allValues, b...)
	}
	const batchLen = 4
	run := func(t *testing.T, dir string, fsys faults.FS) (acked int) {
		t.Helper()
		opts := crashOptions(dir, fsys)
		opts.SegmentBytes = 128
		s := openTolerant(t, opts, fsys)
		if s == nil {
			return 0
		}
		defer s.eng.Abort()
		for i, b := range batches {
			rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", batchBody(b))
			switch rec.Code {
			case http.StatusOK:
				if !ingestResp(t, rec) {
					acked += len(b)
				}
			case http.StatusInternalServerError, http.StatusServiceUnavailable:
			default:
				t.Fatalf("batch %d: unexpected status %d: %s", i, rec.Code, rec.Body)
			}
			if i == 2 || i == 5 || i == 8 {
				_ = s.Checkpoint()
			}
		}
		return acked
	}

	probe := faults.NewInjector(faults.OS{}, -1)
	if acked := run(t, t.TempDir(), probe); acked != len(allValues) {
		t.Fatalf("probe run acked %d of %d", acked, len(allValues))
	}
	total := probe.Ops()
	if total < 30 {
		t.Fatalf("extended probe counted implausibly few crash points: %d", total)
	}
	t.Logf("extended crash-point matrix: %d injected fault points", total)

	for n := 1; n <= total; n++ {
		t.Run(fmt.Sprintf("op%03d", n), func(t *testing.T) {
			dir := t.TempDir()
			inj := faults.NewInjector(faults.OS{}, n)
			acked := run(t, dir, inj)
			if !inj.Tripped() {
				t.Fatal("fault never fired")
			}
			opts := crashOptions(dir, faults.OS{})
			opts.SegmentBytes = 128
			s2, err := Open(opts)
			if err != nil {
				t.Fatalf("recovery after fault at op %d: %v", n, err)
			}
			defer s2.Close()
			recSeen := int(s2.Seen())
			if recSeen < acked {
				t.Fatalf("durability violated: recovered seen=%d < acknowledged %d", recSeen, acked)
			}
			if recSeen > acked+batchLen {
				t.Fatalf("recovered seen=%d, but only %d acked (+%d in flight max)", recSeen, acked, batchLen)
			}
			expectEqualState(t, s2, allValues[:recSeen])
			if rec := do(t, s2, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n"); rec.Code != http.StatusOK {
				t.Fatalf("ingest after recovery: %d: %s", rec.Code, rec.Body)
			}
			if err := s2.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after recovery: %v", err)
			}
		})
	}
}

// TestDiskFullAtRotate: ENOSPC exactly when the WAL starts a new
// segment. The rotate failure strikes after the record is durable, so
// the log end advances past the unapplied state and every later append
// would be a gap — the breaker turns that into degraded mode, and the
// re-anchor (fresh checkpoint + WAL reset) is what makes the log
// appendable again once space returns.
func TestDiskFullAtRotate(t *testing.T) {
	dir := t.TempDir()
	chaos := faults.NewChaos(faults.OS{}, 1)
	opts := resilientOptions(dir, chaos)
	opts.SegmentBytes = 128
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// After=1 lets the first segment create through; the next create —
	// the rotation — hits a full disk.
	chaos.SetRules(faults.Rule{Ops: faults.OpCreate, PathContains: "wal-", Prob: 1, Err: faults.ErrNoSpace, After: 1})
	sawRotateFailure := false
	for i := 0; i < 40 && !s.eng.Degraded(); i++ {
		rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n3\n4\n")
		switch rec.Code {
		case http.StatusOK:
		case http.StatusInternalServerError:
			sawRotateFailure = true
		default:
			t.Fatalf("ingest %d: unexpected status %d: %s", i, rec.Code, rec.Body)
		}
	}
	if !sawRotateFailure {
		t.Fatal("full disk never surfaced as an append failure")
	}
	waitFor(t, "degraded mode after disk-full rotate", func() bool { return s.eng.Degraded() })

	// Space returns; the supervisor re-anchors and appends flow again.
	chaos.Clear()
	waitFor(t, "reanchor", func() bool { return !s.eng.Degraded() })
	if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "5\n"); rec.Code != http.StatusOK || ingestResp(t, rec) {
		t.Fatalf("post-recovery ingest: %d %s", rec.Code, rec.Body)
	}
	seen := s.Seen()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	s2, err := Open(crashOptions(dir, faults.OS{}))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Seen(); got != seen {
		t.Errorf("recovered seen=%d, want %d", got, seen)
	}
}

// TestRestoreCrashPoints injects a crash at every filesystem mutation of
// an acknowledged /restore — the checkpoint of the restored state, the
// prune of older checkpoints, and the WAL reset that re-anchors the
// stripe. Wherever the crash lands, the directory must recover to either
// the pre-restore stream (4 points) or the restored one (8 points), and
// an acknowledged restore must never be lost.
func TestRestoreCrashPoints(t *testing.T) {
	eight := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ref, err := core.NewWithDelta(cwWindow, cwBuckets, cwEps, cwEps)
	if err != nil {
		t.Fatal(err)
	}
	ref.PushBatch(eight)
	blob, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// build seeds a directory with 4 durable points.
	build := func(t *testing.T) string {
		t.Helper()
		dir := t.TempDir()
		s, err := Open(crashOptions(dir, faults.OS{}))
		if err != nil {
			t.Fatal(err)
		}
		if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n3\n4\n"); rec.Code != http.StatusOK {
			t.Fatalf("seed ingest: %d", rec.Code)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	// run reopens the seeded dir under fsys, uploads the 8-point snapshot,
	// and crashes. It reports whether the restore was acknowledged.
	run := func(t *testing.T, dir string, fsys faults.FS) (restored bool) {
		t.Helper()
		s := openTolerant(t, crashOptions(dir, fsys), fsys)
		if s == nil {
			return false
		}
		defer s.eng.Abort()
		rec := do(t, s, http.MethodPost, "/v1/streams/default/restore", string(blob))
		switch rec.Code {
		case http.StatusOK:
			return true
		case http.StatusInternalServerError, http.StatusServiceUnavailable:
			return false
		default:
			t.Fatalf("restore: unexpected status %d: %s", rec.Code, rec.Body)
			return false
		}
	}

	// Probe pass: no fault, count the mutating ops of open + restore.
	dir := build(t)
	probe := faults.NewInjector(faults.OS{}, -1)
	if !run(t, dir, probe) {
		t.Fatal("probe restore not acknowledged")
	}
	total := probe.Ops()
	if total < 3 {
		t.Fatalf("probe counted implausibly few restore crash points: %d", total)
	}
	t.Logf("restore crash-point matrix: %d injected fault points", total)

	for n := 1; n <= total; n++ {
		t.Run(fmt.Sprintf("op%03d", n), func(t *testing.T) {
			dir := build(t)
			inj := faults.NewInjector(faults.OS{}, n)
			restored := run(t, dir, inj)
			if !inj.Tripped() {
				t.Fatal("fault never fired")
			}
			s2, err := Open(crashOptions(dir, faults.OS{}))
			if err != nil {
				t.Fatalf("recovery after fault at op %d: %v", n, err)
			}
			defer s2.Close()
			got := int(s2.Seen())
			if restored && got != 8 {
				t.Fatalf("acknowledged restore lost: recovered seen=%d, want 8", got)
			}
			if got != 4 && got != 8 {
				t.Fatalf("recovered seen=%d, want the pre-restore 4 or the restored 8", got)
			}
			expectEqualState(t, s2, eight[:got])
			if rec := do(t, s2, http.MethodPost, "/v1/streams/default/ingest", "9\n"); rec.Code != http.StatusOK {
				t.Fatalf("ingest after restore recovery: %d: %s", rec.Code, rec.Body)
			}
		})
	}
}
