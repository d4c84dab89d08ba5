package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"streamhist/internal/obs"
)

func TestNewValidatesCapacity(t *testing.T) {
	for _, c := range []int{0, -1} {
		if _, err := New(c); err == nil {
			t.Errorf("New(%d): want error", c)
		}
	}
	r, err := New(4)
	if err != nil {
		t.Fatalf("New(4): %v", err)
	}
	if r.Capacity() != 4 {
		t.Fatalf("Capacity() = %d, want 4", r.Capacity())
	}
	hi, lo := r.TraceID()
	if hi == 0 && lo == 0 {
		t.Fatal("TraceID is all-zero")
	}
}

// TestNilRecorderNoOpAndAllocationFree pins the nil-is-disabled
// contract: every method on a nil *Recorder must be a no-op and the
// instrumentation shape used on hot paths must not allocate.
func TestNilRecorderNoOpAndAllocationFree(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		sp := r.StartSpan(0, EvPush, 0, 0, 0)
		inner := r.StartSpan(sp.ID(), EvRebuild, 0, 1, 2)
		r.Instant(EvLevel, 3, inner.ID(), 0, 4, 5)
		inner.End(0, 0)
		sp.End(0, 0)
		_ = r.Now()
		_ = r.MaybeCaptureSlow(time.Hour, CaptureStats{})
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %v allocs/op, want 0", allocs)
	}
	if r.Snapshot() != nil || r.Total() != 0 || r.Dropped() != 0 || r.Capacity() != 0 {
		t.Fatal("nil recorder leaked state")
	}
	r.SetRegistry(nil)
	r.SetCodeNamer(nil)
	r.SetSlowCapture("", time.Second, 1)
}

// TestEmitAllocationFree pins that recording on a live recorder is
// allocation-free too: the ring is preallocated and Span is a value.
func TestEmitAllocationFree(t *testing.T) {
	r, err := New(64)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := r.StartSpan(0, EvPush, 0, 0, 0)
		r.Instant(EvLevel, 1, sp.ID(), 0, 2, 3)
		sp.End(0, 0)
	})
	if allocs != 0 {
		t.Fatalf("enabled recorder allocated %v allocs/op on emit, want 0", allocs)
	}
}

func TestSpanTreeAndSnapshotOrder(t *testing.T) {
	r, err := New(128)
	if err != nil {
		t.Fatal(err)
	}
	root := r.StartSpan(0, EvHTTP, 7, 11, 22)
	child := r.StartSpan(root.ID(), EvRebuild, 0, 100, 3)
	r.Instant(EvLevel, 1, child.ID(), 0, 9, 4)
	if d := child.End(0, 0); d < 0 {
		t.Fatalf("span duration negative: %v", d)
	}
	root.End(200, 0)

	ev := r.Snapshot()
	if len(ev) != 5 {
		t.Fatalf("snapshot has %d events, want 5", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].TS < ev[i-1].TS {
			t.Fatalf("snapshot not chronological at %d: %d < %d", i, ev[i].TS, ev[i-1].TS)
		}
	}
	if ev[0].Type != EvHTTP || ev[0].Ph != PhaseBegin || ev[0].Code != 7 || ev[0].A != 11 || ev[0].N != 22 {
		t.Fatalf("unexpected root begin event: %+v", ev[0])
	}
	if ev[1].Parent != root.ID() {
		t.Fatalf("child parent = %d, want %d", ev[1].Parent, root.ID())
	}
	if ev[2].Type != EvLevel || ev[2].Parent != child.ID() {
		t.Fatalf("level instant misparented: %+v", ev[2])
	}
	if ev[4].Type != EvHTTP || ev[4].Ph != PhaseEnd || ev[4].A != 200 || ev[4].Dur <= 0 && ev[4].Dur != 0 {
		t.Fatalf("unexpected root end event: %+v", ev[4])
	}
	if root.ID() == child.ID() || root.ID() == 0 || child.ID() == 0 {
		t.Fatalf("span IDs not distinct and nonzero: root=%d child=%d", root.ID(), child.ID())
	}
}

func TestRingWrapCountsDropped(t *testing.T) {
	reg := obs.NewRegistry()
	r, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	r.SetRegistry(reg)
	for i := 0; i < 10; i++ {
		r.Instant(EvPush, 0, 0, 0, int64(i), 0)
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	ev := r.Snapshot()
	if len(ev) != 4 {
		t.Fatalf("snapshot holds %d, want 4", len(ev))
	}
	for i, e := range ev {
		if want := int64(6 + i); e.A != want {
			t.Fatalf("slot %d holds A=%d, want %d (oldest-first after wrap)", i, e.A, want)
		}
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, "streamhist_trace_events_total 10") {
		t.Fatalf("events counter missing/wrong:\n%s", text)
	}
	if !strings.Contains(text, "streamhist_trace_events_dropped_total 6") {
		t.Fatalf("dropped counter missing/wrong:\n%s", text)
	}
}

func TestRecorderConcurrentEmitAndSnapshot(t *testing.T) {
	r, err := New(256)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sp := r.StartSpan(0, EvPush, uint8(g), int64(i), 0)
				r.Instant(EvLevel, 1, sp.ID(), 0, 0, 0)
				sp.End(0, 0)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = r.Snapshot()
			_ = r.Dropped()
		}
	}()
	wg.Wait()
	if got := r.Total(); got != 4*500*3 {
		t.Fatalf("Total = %d, want %d", got, 4*500*3)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	h := FormatTraceparent(0x0123456789abcdef, 0xfedcba9876543210, 0xdeadbeefcafe)
	want := "00-0123456789abcdeffedcba9876543210-0000deadbeefcafe-01"
	if h != want {
		t.Fatalf("FormatTraceparent = %q, want %q", h, want)
	}
	hi, lo, parent, ok := ParseTraceparent(h)
	if !ok || hi != 0x0123456789abcdef || lo != 0xfedcba9876543210 || parent != 0xdeadbeefcafe {
		t.Fatalf("ParseTraceparent(%q) = %x %x %x %v", h, hi, lo, parent, ok)
	}
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"00-0123456789abcdeffedcba9876543210-0000deadbeefcafe",       // missing flags
		"ff-0123456789abcdeffedcba9876543210-0000deadbeefcafe-01",    // forbidden version
		"zz-0123456789abcdeffedcba9876543210-0000deadbeefcafe-01",    // non-hex version
		"00-0123456789abcdeffedcba987654321X-0000deadbeefcafe-01",    // non-hex trace id
		"00-X123456789abcdeffedcba9876543210-0000deadbeefcafe-01",    // non-hex trace id (hi)
		"00-0123456789abcdeffedcba9876543210-0000deadbeefcafX-01",    // non-hex parent
		"00-0123456789abcdeffedcba9876543210-0000deadbeefcafe-0X",    // non-hex flags
		"00-00000000000000000000000000000000-0000deadbeefcafe-01",    // zero trace id
		"00-0123456789abcdeffedcba9876543210-0000000000000000-01",    // zero parent
		"00-0123456789abcdeffedcba98765432100-0000deadbeefcafe-01",   // trace id too long
		"00-0123456789abcdeffedcba9876543210-0000deadbeefcafe-01-99", // trailing field
	}
	for _, h := range bad {
		if _, _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", h)
		}
	}
}

func TestEventJSONNamer(t *testing.T) {
	e := Event{TS: 10, Dur: 5, Span: 2, Parent: 1, A: 3, N: 4, Type: EvHTTP, Ph: PhaseEnd, Code: 9}
	j := e.JSON(func(tp EventType, code uint8) string {
		if tp == EvHTTP && code == 9 {
			return "/ingest"
		}
		return ""
	})
	if j.Name != "/ingest" || j.Type != "http" || j.Phase != "end" || j.TSNs != 10 || j.DurNs != 5 {
		t.Fatalf("unexpected EventJSON: %+v", j)
	}
	if got := e.JSON(nil).Name; got != "" {
		t.Fatalf("nil namer produced name %q", got)
	}
}

func TestMaybeCaptureSlowWritesAndPrunes(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	r, err := New(32)
	if err != nil {
		t.Fatal(err)
	}
	r.SetRegistry(reg)
	r.SetSlowCapture(dir, time.Millisecond, 2)

	sp := r.StartSpan(0, EvRebuild, 0, 100, 1)
	r.Instant(EvLevel, 1, sp.ID(), 0, 7, 3)
	sp.End(0, 0)

	if r.MaybeCaptureSlow(time.Microsecond, CaptureStats{}) {
		t.Fatal("capture fired below threshold")
	}
	st := CaptureStats{Window: 100, Buckets: 8, Eps: 0.1, Pending: 5, Evals: 42, MemoHits: 3}
	for i := 0; i < 3; i++ {
		if !r.MaybeCaptureSlow(5*time.Millisecond, st) {
			t.Fatalf("capture %d did not fire", i)
		}
	}

	files, err := filepath.Glob(filepath.Join(dir, "capture-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("capture dir holds %d files, want 2 (pruned): %v", len(files), files)
	}

	blob, err := os.ReadFile(files[len(files)-1])
	if err != nil {
		t.Fatal(err)
	}
	var c Capture
	if err := json.Unmarshal(blob, &c); err != nil {
		t.Fatalf("capture is not valid JSON: %v", err)
	}
	if c.DurationNs != int64(5*time.Millisecond) || c.ThresholdNs != int64(time.Millisecond) {
		t.Fatalf("capture durations wrong: %+v", c)
	}
	if c.Stats != st {
		t.Fatalf("capture stats = %+v, want %+v", c.Stats, st)
	}
	if len(c.Events) == 0 {
		t.Fatal("capture holds no events")
	}
	foundLevel := false
	for _, e := range c.Events {
		if e.Type == "level" && e.Code == 1 && e.Parent == uint64(sp.ID()) {
			foundLevel = true
		}
	}
	if !foundLevel {
		t.Fatalf("level event missing from capture: %+v", c.Events)
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "streamhist_trace_captures_total 3") {
		t.Fatalf("captures counter missing:\n%s", sb.String())
	}
}

func TestMaybeCaptureSlowFailureCounted(t *testing.T) {
	dir := t.TempDir()
	// A regular file where the capture directory should be makes
	// MkdirAll fail deterministically.
	blocked := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	r.SetRegistry(reg)
	r.SetSlowCapture(blocked, time.Millisecond, 2)
	if r.MaybeCaptureSlow(time.Second, CaptureStats{}) {
		t.Fatal("capture reported success against a blocked directory")
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "streamhist_trace_capture_failures_total 1") {
		t.Fatalf("capture failure not counted:\n%s", sb.String())
	}
}

func TestEventTypeAndPhaseStrings(t *testing.T) {
	for tp := EventType(1); tp < numEventTypes; tp++ {
		if s := tp.String(); s == "unknown" || s == "" {
			t.Errorf("EventType(%d) has no name", tp)
		}
	}
	if EventType(200).String() != "unknown" {
		t.Error("out-of-range EventType should stringify as unknown")
	}
	if PhaseInstant.String() != "instant" || PhaseBegin.String() != "begin" || PhaseEnd.String() != "end" {
		t.Error("phase names drifted")
	}
}
