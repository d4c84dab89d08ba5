package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"streamhist/internal/faults"
)

// stripeSegments returns shard id's WAL segment file names, sorted.
func stripeSegments(t *testing.T, dataDir string, id int) []string {
	t.Helper()
	dir := shardDir(dataDir, id)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(segs)
	return segs
}

// TestParallelRecoveryCrashMatrix damages the striped on-disk state in
// per-shard ways and proves recovery is correct stripe by stripe: a torn
// tail loses only that stripe's final unacknowledged-durable record, and
// a wholly missing WAL falls back to that stripe's checkpoint without
// touching any other shard's data.
func TestParallelRecoveryCrashMatrix(t *testing.T) {
	const shards = 4
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("tenant-%02d", i)
	}

	t.Run("torn-tail-every-shard", func(t *testing.T) {
		dir := t.TempDir()
		cfg := Config{Shards: shards, DataDir: dir, SyncEveryAppend: true, Factory: testFactory(t)}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Round 1 then round 2, so each stripe's final record belongs to
		// the highest-indexed key routed onto it.
		for _, key := range keys {
			if _, _, err := e.Ingest(key, 0, []float64{1, 2}); err != nil {
				t.Fatal(err)
			}
		}
		lastOnShard := make(map[int]string)
		for _, key := range keys {
			if _, _, err := e.Ingest(key, 0, []float64{3}); err != nil {
				t.Fatal(err)
			}
			lastOnShard[e.ShardFor(key)] = key
		}
		e.Abort()

		// Tear a few bytes off the tail of every stripe's last segment:
		// exactly the final record of each stripe fails its checksum.
		for id := 0; id < shards; id++ {
			segs := stripeSegments(t, dir, id)
			if len(segs) == 0 {
				t.Fatalf("shard %d has no wal segments", id)
			}
			last := segs[len(segs)-1]
			fi, err := os.Stat(last)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(last, fi.Size()-3); err != nil {
				t.Fatal(err)
			}
		}

		e2, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e2.Close()
		for _, key := range keys {
			want := int64(3)
			if lastOnShard[e2.ShardFor(key)] == key {
				want = 2 // its round-2 record was the torn one
			}
			if got := e2.Seen(key); got != want {
				t.Errorf("stream %q recovered seen = %d, want %d", key, got, want)
			}
		}
	})

	t.Run("one-shard-wal-missing", func(t *testing.T) {
		dir := t.TempDir()
		cfg := Config{Shards: shards, DataDir: dir, SyncEveryAppend: true, Factory: testFactory(t)}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			if _, _, err := e.Ingest(key, 0, []float64{1, 2}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.CheckpointAll(); err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			if _, _, err := e.Ingest(key, 0, []float64{3}); err != nil {
				t.Fatal(err)
			}
		}
		e.Abort()

		// Shard 0 loses its entire WAL; its checkpoint container survives.
		victims := stripeSegments(t, dir, 0)
		if len(victims) == 0 {
			t.Fatal("shard 0 has no wal segments to delete")
		}
		for _, seg := range victims {
			if err := os.Remove(seg); err != nil {
				t.Fatal(err)
			}
		}

		e2, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e2.Close()
		var hitVictim bool
		for _, key := range keys {
			want := int64(3)
			if e2.ShardFor(key) == 0 {
				want = 2 // checkpoint only; the post-checkpoint tail went with the WAL
				hitVictim = true
			}
			if got := e2.Seen(key); got != want {
				t.Errorf("stream %q recovered seen = %d, want %d", key, got, want)
			}
		}
		if !hitVictim {
			t.Fatal("no test key routed to shard 0; matrix case did not exercise the missing stripe")
		}
	})
}

// TestFailedRollKeepsBatchAcknowledged: the roll to a new segment runs
// after a batch is written and synced, so a failed roll must not fail
// that batch. Were it failed, the stream's next batch would be planned
// at the same positions and acknowledged, and recovery would replay the
// failed batch and skip the acknowledged one as covered.
func TestFailedRollKeepsBatchAcknowledged(t *testing.T) {
	dir := t.TempDir()
	chaos := faults.NewChaos(faults.OS{}, 1)
	cfg := Config{Shards: 1, DataDir: dir, FS: chaos, SegmentBytes: 64, SyncEveryAppend: true, Factory: testFactory(t)}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The first segment creation goes through; the second, the roll after
	// the first batch, fails once.
	chaos.SetRules(faults.Rule{Ops: faults.OpCreate, PathContains: "wal-", Prob: 1, After: 1, Count: 1})
	var errs []error
	var seen int64
	for _, b := range [][]float64{{1, 2, 3, 4, 5, 6}, {7, 8, 9, 10, 11, 12}} {
		s, _, err := e.Ingest("a", 0, b)
		errs = append(errs, err)
		if err == nil {
			seen = s
		}
	}
	if chaos.Fired() != 1 {
		t.Fatalf("roll fault fired %d times, want 1", chaos.Fired())
	}
	var live []float64
	if err := e.View("a", func(st *State) error {
		live = st.FW.Window()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	e.Abort()

	cfg.FS = faults.OS{}
	e2, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	var got []float64
	if err := e2.View("a", func(st *State) error {
		got = st.FW.Window()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if e2.Seen("a") != seen || !reflect.DeepEqual(got, live) {
		t.Fatalf("recovered seen %d window %v, want the acknowledged seen %d window %v (ingest errors %v)",
			e2.Seen("a"), got, seen, live, errs)
	}
	if errs[0] != nil {
		t.Fatalf("batch already in the log failed by its roll: %v", errs[0])
	}
}

// TestFailedRestoreChangesNothing: on a durable engine Restore installs
// the snapshot only once a checkpoint holding it is durable. With the
// checkpoint's rename failing once, the restore fails and the stream
// keeps its old window, so an ingest acknowledged afterwards is logged at
// the old window's positions and recovers after a crash. Installed early,
// a snapshot behind the stream lost that ingest to the old window on
// recovery, and one ahead of it made recovery fail with a gap. A failed
// restore of a new key creates nothing and frees its key slot.
func TestFailedRestoreChangesNothing(t *testing.T) {
	for _, tc := range []struct{ old, snap int }{{10, 3}, {2, 20}, {0, 5}} {
		t.Run(fmt.Sprintf("old=%d/snapshot=%d", tc.old, tc.snap), func(t *testing.T) {
			dir := t.TempDir()
			chaos := faults.NewChaos(faults.OS{}, 1)
			cfg := Config{Shards: 1, DataDir: dir, FS: chaos, SyncEveryAppend: true, Factory: testFactory(t)}
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var want []float64
			for i := 0; i < tc.old; i++ {
				want = append(want, float64(i))
			}
			if tc.old > 0 {
				if _, _, err := e.Ingest("a", 0, want); err != nil {
					t.Fatal(err)
				}
			}
			src, err := testFactory(t)("src")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.snap; i++ {
				src.FW.PushLazy(float64(1000 + i))
			}
			snap, err := src.FW.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			keys := e.KeyCount()

			chaos.SetRules(faults.Rule{Ops: faults.OpRename, PathContains: "checkpoint-", Prob: 1, Count: 1})
			if _, _, err := e.Restore("a", snap); err == nil {
				t.Fatal("restore whose checkpoint save failed succeeded")
			}
			if chaos.Fired() != 1 {
				t.Fatalf("checkpoint fault fired %d times, want 1", chaos.Fired())
			}
			if got := e.KeyCount(); got != keys {
				t.Fatalf("key count %d after the failed restore, want %d", got, keys)
			}
			if tc.old == 0 {
				if err := e.View("a", func(*State) error { return nil }); !errors.Is(err, ErrUnknownStream) {
					t.Fatalf("failed restore of a new key left a stream behind: %v", err)
				}
			}
			want = append(want, 100, 101)
			if seen, _, err := e.Ingest("a", 0, []float64{100, 101}); err != nil || seen != int64(len(want)) {
				t.Fatalf("ingest after the failed restore: seen=%d err=%v, want seen=%d", seen, err, len(want))
			}
			e.Abort()

			cfg.FS = faults.OS{}
			e2, err := NewEngine(cfg)
			if err != nil {
				t.Fatalf("recovery after the failed restore: %v", err)
			}
			defer e2.Close()
			var got []float64
			if err := e2.View("a", func(st *State) error {
				got = st.FW.Window()
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered window %v, want the acknowledged %v", got, want)
			}
		})
	}
}
