package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"streamhist/internal/core"
	"streamhist/internal/leakcheck"
)

// testFactory builds small windows so tests are cheap.
func testFactory(t *testing.T) Factory {
	t.Helper()
	return func(key string) (*State, error) {
		fw, err := core.New(32, 4, 0.1)
		if err != nil {
			return nil, err
		}
		return NewState(fw)
	}
}

func testEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Factory == nil {
		cfg.Factory = testFactory(t)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := e.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return e
}

func TestHashRoutingStableAcrossRestarts(t *testing.T) {
	// Routing must be a pure function of (key, shard count): the striped
	// on-disk layout depends on every restart sending a key to the same
	// stripe. Exercise a spread of keys against fresh engines.
	for _, shards := range []int{1, 2, 4, 8} {
		e1 := testEngine(t, Config{Shards: shards})
		e2 := testEngine(t, Config{Shards: shards})
		hits := make([]int, shards)
		for i := 0; i < 1000; i++ {
			key := fmt.Sprintf("tenant-%d", i)
			a, b := e1.ShardFor(key), e2.ShardFor(key)
			if a != b {
				t.Fatalf("shards=%d key %q routed to %d then %d", shards, key, a, b)
			}
			if a < 0 || a >= shards {
				t.Fatalf("shards=%d key %q routed out of range: %d", shards, key, a)
			}
			hits[a]++
		}
		// FNV-1a should spread 1000 keys roughly evenly; a completely
		// broken hash (everything on one shard) must fail.
		for i, n := range hits {
			if shards > 1 && n == 1000 {
				t.Fatalf("shards=%d: all keys landed on shard %d", shards, i)
			}
		}
	}
}

func TestContainerRoundTrip(t *testing.T) {
	fac := testFactory(t)
	streams := map[string]*State{}
	for _, key := range []string{"a", "b", "with/slash", "日本"} {
		st, err := fac(key)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			st.FW.PushLazy(float64(i))
		}
		streams[key] = st
	}
	blob, err := encodeContainer(42, streams)
	if err != nil {
		t.Fatal(err)
	}
	covered, blobs, err := decodeContainer(blob)
	if err != nil {
		t.Fatal(err)
	}
	if covered != 42 {
		t.Errorf("coveredSeq = %d, want 42", covered)
	}
	if len(blobs) != len(streams) {
		t.Fatalf("decoded %d streams, want %d", len(blobs), len(streams))
	}
	for key, fwBlob := range blobs {
		fw, err := core.New(32, 4, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if err := fw.UnmarshalBinary(fwBlob); err != nil {
			t.Fatalf("stream %q blob: %v", key, err)
		}
		if fw.Seen() != 5 {
			t.Errorf("stream %q seen = %d, want 5", key, fw.Seen())
		}
	}
	// Deterministic: same state, same bytes.
	blob2, err := encodeContainer(42, streams)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(blob, blob2) {
		t.Error("encodeContainer is not deterministic")
	}
	// Damage must be detected, not skipped.
	if _, _, err := decodeContainer(blob[:len(blob)-3]); err == nil {
		t.Error("truncated container decoded without error")
	}
	if _, _, err := decodeContainer([]byte{99}); err == nil {
		t.Error("bad version decoded without error")
	}
}

func TestEngineBasicOps(t *testing.T) {
	e := testEngine(t, Config{})
	if _, _, err := e.Ingest("a", 0, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	seen, degraded, err := e.Ingest("a", 0, []float64{4})
	if err != nil || degraded {
		t.Fatalf("ingest: seen=%d degraded=%v err=%v", seen, degraded, err)
	}
	if seen != 4 {
		t.Errorf("seen = %d, want 4", seen)
	}
	if _, _, err := e.Ingest("b", 0, []float64{9}); err != nil {
		t.Fatal(err)
	}
	if got := e.Keys(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Keys = %v, want [a b]", got)
	}
	if n := e.KeyCount(); n != 2 {
		t.Errorf("KeyCount = %d, want 2", n)
	}
	if err := e.View("missing", func(*State) error { return nil }); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("View unknown: err = %v, want ErrUnknownStream", err)
	}
	var aLen int
	if err := e.View("a", func(st *State) error { aLen = st.FW.Len(); return nil }); err != nil {
		t.Fatal(err)
	}
	if aLen != 4 {
		t.Errorf("window len = %d, want 4", aLen)
	}
	if err := e.Delete("missing", 0); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("Delete unknown: err = %v, want ErrUnknownStream", err)
	}
	if err := e.Delete("b", 0); err != nil {
		t.Fatal(err)
	}
	if n := e.KeyCount(); n != 1 {
		t.Errorf("KeyCount after delete = %d, want 1", n)
	}
	// A recreated stream starts over.
	if seen, _, err := e.Ingest("b", 0, []float64{1}); err != nil || seen != 1 {
		t.Fatalf("recreate: seen=%d err=%v", seen, err)
	}
}

// TestEngineIncrementalEagerMaintain pins the shard loop's batching
// contract for incremental streams: when the factory enables incremental
// cover repair, the apply phase maintains eagerly — exactly one
// maintenance pass per drained ingest batch, never one per value — while
// the very first batch's cover-establishing rebuild stays uncounted (it
// is neither a hit nor a fallback).
func TestEngineIncrementalEagerMaintain(t *testing.T) {
	e := testEngine(t, Config{Factory: func(key string) (*State, error) {
		fw, err := core.New(32, 4, 0.1)
		if err != nil {
			return nil, err
		}
		fw.SetIncrementalRebuild(true)
		return NewState(fw)
	}})
	const batches = 6
	for i := 0; i < batches; i++ {
		vals := []float64{float64(i), float64(i * 3 % 7), float64(i * 5 % 11)}
		if _, _, err := e.Ingest("a", 0, vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.View("a", func(st *State) error {
		hits, _, falls := st.FW.IncrementalStats()
		if hits+falls != batches-1 {
			t.Errorf("maintenance passes = %d (hits %d, fallbacks %d), want %d: one per drained batch after the cover-establishing first",
				hits+falls, hits, falls, batches-1)
		}
		if st.FW.Seen() != 3*batches {
			t.Errorf("seen = %d, want %d", st.FW.Seen(), 3*batches)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineKeyQuota(t *testing.T) {
	e := testEngine(t, Config{MaxKeys: 2})
	for _, key := range []string{"a", "b"} {
		if _, _, err := e.Ingest(key, 0, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := e.Ingest("c", 0, []float64{1}); !errors.Is(err, ErrQuotaKeys) {
		t.Fatalf("over-quota create: err = %v, want ErrQuotaKeys", err)
	}
	// Existing streams keep ingesting at the cap.
	if _, _, err := e.Ingest("a", 0, []float64{2}); err != nil {
		t.Fatal(err)
	}
	// Deleting frees a slot.
	if err := e.Delete("b", 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Ingest("c", 0, []float64{1}); err != nil {
		t.Fatalf("create after delete: %v", err)
	}
	if n := e.KeyCount(); n != 2 {
		t.Errorf("KeyCount = %d, want 2", n)
	}
}

func TestEngineDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 4, DataDir: dir, SyncEveryAppend: true, Factory: testFactory(t)}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("t-%d", i)
		vals := make([]float64, i%3+1)
		for j := range vals {
			vals[j] = float64(i + j)
		}
		seen, _, err := e.Ingest(key, 0, vals)
		if err != nil {
			t.Fatal(err)
		}
		want[key] = seen
	}
	if err := e.Delete("t-3", 0); err != nil {
		t.Fatal(err)
	}
	delete(want, "t-3")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if n := e2.KeyCount(); n != int64(len(want)) {
		t.Errorf("recovered KeyCount = %d, want %d", n, len(want))
	}
	for key, seen := range want {
		if got := e2.Seen(key); got != seen {
			t.Errorf("stream %q recovered seen = %d, want %d", key, got, seen)
		}
	}
	if err := e2.View("t-3", func(*State) error { return nil }); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("deleted stream survived recovery: %v", err)
	}
}

func TestEngineCrashRecovery(t *testing.T) {
	// Abort skips the final checkpoint: recovery must come from the
	// striped WALs alone.
	dir := t.TempDir()
	cfg := Config{Shards: 4, DataDir: dir, SyncEveryAppend: true, Factory: testFactory(t)}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := e.Ingest(fmt.Sprintf("t-%d", i), 0, []float64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	e.Abort()

	e2, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	for i := 0; i < 8; i++ {
		if got := e2.Seen(fmt.Sprintf("t-%d", i)); got != 2 {
			t.Errorf("stream t-%d recovered seen = %d, want 2", i, got)
		}
	}
}

func TestShardCountMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 4, DataDir: dir, Factory: testFactory(t)}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 2
	if _, err := NewEngine(cfg); err == nil || !strings.Contains(err.Error(), "laid out with 4 shards") {
		t.Fatalf("shard-count mismatch: err = %v, want layout error", err)
	}
}

func TestLegacySingleStreamDirRefused(t *testing.T) {
	dir := t.TempDir()
	// Fabricate a legacy layout marker: a top-level wal segment.
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000000.log"), []byte("SWL1"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewEngine(Config{Shards: 2, DataDir: dir, Factory: testFactory(t)})
	if err == nil || !strings.Contains(err.Error(), "legacy single-stream") {
		t.Fatalf("legacy dir: err = %v, want migration error", err)
	}
}

func TestTenantChurnSoak(t *testing.T) {
	// Create/ingest/delete a rotating population of tenants against a
	// durable engine; nothing may leak (goroutines, key census) and the
	// survivors must recover exactly.
	before := leakcheck.Take()
	dir := t.TempDir()
	cfg := Config{Shards: 3, DataDir: dir, SyncEveryAppend: true, Factory: testFactory(t), MaxKeys: 64}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	live := map[string]int64{}
	for r := 0; r < rounds; r++ {
		key := fmt.Sprintf("tenant-%d", r%16)
		seen, _, err := e.Ingest(key, 0, []float64{float64(r), float64(r) + 0.5})
		if err != nil {
			t.Fatal(err)
		}
		live[key] = seen
		if r%5 == 4 {
			victim := fmt.Sprintf("tenant-%d", (r-2)%16)
			if _, ok := live[victim]; ok {
				if err := e.Delete(victim, 0); err != nil {
					t.Fatalf("delete %s: %v", victim, err)
				}
				delete(live, victim)
			}
		}
		if n := e.KeyCount(); n != int64(len(live)) {
			t.Fatalf("round %d: KeyCount = %d, want %d", r, n, len(live))
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for key, seen := range live {
		if got := e2.Seen(key); got != seen {
			t.Errorf("stream %q recovered seen = %d, want %d", key, got, seen)
		}
	}
	if n := e2.KeyCount(); n != int64(len(live)) {
		t.Errorf("recovered KeyCount = %d, want %d", n, len(live))
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	leakcheck.Check(t, before)
}

// TestRestoreAuxiliariesFollowSnapshot: Restore decodes into the
// factory's window, and the auxiliaries take the restored window's bucket
// budget and epsilon — the factory's when the snapshot matches them, a
// fresh set when it does not. A body that does not decode is
// ErrBadSnapshot and leaves the stream as it was.
func TestRestoreAuxiliariesFollowSnapshot(t *testing.T) {
	e := testEngine(t, Config{})
	snapshot := func(b int, eps float64) []byte {
		fw, err := core.New(32, b, eps)
		if err != nil {
			t.Fatal(err)
		}
		fw.PushBatch([]float64{1, 5, 2, 8, 3})
		blob, err := fw.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	for _, tc := range []struct {
		b   int
		eps float64
	}{{4, 0.1}, {6, 0.2}} {
		if _, _, err := e.Restore("r", snapshot(tc.b, tc.eps)); err != nil {
			t.Fatal(err)
		}
		if err := e.View("r", func(st *State) error {
			if st.FW.Buckets() != tc.b || st.Agg.Buckets() != tc.b || st.Agg.Epsilon() != tc.eps {
				t.Errorf("snapshot B=%d eps=%g: window B=%d, agglom B=%d eps=%g",
					tc.b, tc.eps, st.FW.Buckets(), st.Agg.Buckets(), st.Agg.Epsilon())
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := e.Restore("r", []byte("garbage")); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("garbage restore: %v, want ErrBadSnapshot", err)
	}
	if got := e.Seen("r"); got != 5 {
		t.Errorf("seen after a failed restore = %d, want 5", got)
	}
}
