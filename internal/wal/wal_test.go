package wal

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"streamhist/internal/faults"
)

func replayKeyedAll(t *testing.T, w *WAL, coveredSeq uint64) []KeyedRecord {
	t.Helper()
	var out []KeyedRecord
	if err := w.ReplayKeyed(coveredSeq, func(r KeyedRecord) error {
		r.Values = append([]float64(nil), r.Values...)
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("replay keyed: %v", err)
	}
	return out
}

// segmentNames lists the files in dir.
func segmentNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

func appendOne(t *testing.T, w *WAL, r KeyedRecord) {
	t.Helper()
	if err := w.AppendBatch([]KeyedRecord{r}); err != nil {
		t.Fatalf("append %+v: %v", r, err)
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	recs := []KeyedRecord{
		{Key: "a", Start: 0, Values: []float64{1, 2, 3}},
		{Key: strings.Repeat("k", MaxKeyLen), Start: 0, Values: []float64{4.5}},
		{Key: "a", Start: 3, Values: []float64{-1, 0.25, 1e9, -2.5}},
	}
	for _, r := range recs {
		appendOne(t, w, r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := replayKeyedAll(t, w2, 0); !reflect.DeepEqual(got, recs) {
		t.Errorf("replay = %+v, want %+v", got, recs)
	}
	// Appends continue the reopened active segment.
	more := KeyedRecord{Key: "a", Start: 7, Values: []float64{9}}
	appendOne(t, w2, more)
	if got := segmentNames(t, dir); len(got) != 1 {
		t.Errorf("segments after reopen and append = %v, want one", got)
	}
	if got := replayKeyedAll(t, w2, 0); !reflect.DeepEqual(got, append(recs, more)) {
		t.Errorf("replay after reopen and append = %+v", got)
	}
}

func TestKeyedAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	batches := []KeyedRecord{
		{Key: "alpha", Start: 0, Values: []float64{1, 2, 3}},
		{Key: "beta", Start: 0, Values: []float64{4.5}},
		{Key: "alpha", Start: 3, Values: []float64{-1, 0.25, 1e9}},
		{Key: "beta", Start: 1, Delete: true},
	}
	// Two records in one batch (group commit), then two single appends.
	if err := w.AppendBatch(batches[:2]); err != nil {
		t.Fatalf("append batch: %v", err)
	}
	for _, r := range batches[2:] {
		appendOne(t, w, r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := replayKeyedAll(t, w2, 0); !reflect.DeepEqual(got, batches) {
		t.Errorf("replay = %+v, want %+v", got, batches)
	}
}

// TestSegmentBytesPinned pins the on-disk format: the name and exact
// bytes of the segment a fixed group commit and a tombstone leave, so
// data directories written by earlier builds keep opening.
func TestSegmentBytesPinned(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch([]KeyedRecord{
		{Key: "a", Start: 0, Values: []float64{1, -2.5}},
		{Key: "bc", Start: 7, Values: []float64{0.125}},
	}); err != nil {
		t.Fatal(err)
	}
	appendOne(t, w, KeyedRecord{Key: "a", Delete: true})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	const name = "wal-0000000000000000-0000000000000000.log"
	const want = "53574b31" + "0000000000000000" + // magic, segment start 0
		// length, CRC, flags, keyLen, key, start, values
		"1c000000" + "8d964846" + "00" + "0100" + "61" + "0000000000000000" + "000000000000f03f" + "00000000000004c0" +
		"15000000" + "12d7fbbe" + "00" + "0200" + "6263" + "0700000000000000" + "000000000000c03f" +
		"0c000000" + "d75e8b42" + "01" + "0100" + "61" + "0000000000000000"
	if got := segmentNames(t, dir); len(got) != 1 || got[0] != name {
		t.Fatalf("segments = %v, want [%s]", got, name)
	}
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != want {
		t.Fatalf("segment bytes\n got %s\nwant %s", got, want)
	}
}

func TestEmptyLog(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := replayKeyedAll(t, w, 0); len(got) != 0 {
		t.Errorf("empty replay returned %d records", len(got))
	}
	if got := w.SizeBytes(); got != 0 {
		t.Errorf("empty SizeBytes = %d", got)
	}
	if w.ActiveSeq() != 0 || w.NextSeq() != 0 {
		t.Errorf("empty ActiveSeq, NextSeq = %d, %d; want 0, 0", w.ActiveSeq(), w.NextSeq())
	}
	// Rotating or collecting an empty log creates and deletes nothing.
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := w.DropSealedBefore(5); err != nil {
		t.Fatal(err)
	}
	if got := segmentNames(t, dir); len(got) != 0 {
		t.Fatalf("empty log left files %v", got)
	}
	// The first append creates segment 0.
	appendOne(t, w, KeyedRecord{Key: "a", Start: 1000, Values: []float64{1}})
	if got := segmentNames(t, dir); !reflect.DeepEqual(got, []string{"wal-0000000000000000-0000000000000000.log"}) {
		t.Errorf("segments after first append = %v", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTornTailTruncated cuts bytes off the final record at every possible
// length and verifies recovery keeps exactly the intact prefix.
func TestTornTailTruncated(t *testing.T) {
	recs := []KeyedRecord{
		{Key: "k", Start: 0, Values: []float64{0, 0.5}},
		{Key: "k", Start: 2, Values: []float64{1, 1.5}},
		{Key: "k", Start: 4, Values: []float64{2, 2.5}},
	}
	build := func(dir string) (string, int64) {
		w, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			appendOne(t, w, r)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		names := segmentNames(t, dir)
		if len(names) != 1 {
			t.Fatalf("want one segment, got %v", names)
		}
		path := filepath.Join(dir, names[0])
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, fi.Size()
	}

	recLen := int64(recHdrLen + recFixed + 1 + 2*8)
	for cut := int64(1); cut <= recLen; cut++ {
		dir := t.TempDir()
		path, full := build(dir)
		if err := os.Truncate(path, full-cut); err != nil {
			t.Fatal(err)
		}
		w, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		if got := replayKeyedAll(t, w, 0); !reflect.DeepEqual(got, recs[:2]) {
			t.Fatalf("cut %d: recovered %+v, want the first two records", cut, got)
		}
		// The torn bytes are gone from disk: appends go to a clean tail.
		repaired := KeyedRecord{Key: "k", Start: 4, Values: []float64{42}}
		appendOne(t, w, repaired)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if got := replayKeyedAll(t, w2, 0); !reflect.DeepEqual(got, append(recs[:2:2], repaired)) {
			t.Errorf("cut %d: after repair replay = %+v", cut, got)
		}
	}
}

// TestKeyedTornTailTruncated tears the tail of a two-key segment and checks
// that recovery keeps the other key's record and the log stays appendable
// without a reopen.
func TestKeyedTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	appendOne(t, w, KeyedRecord{Key: "a", Start: 0, Values: []float64{1, 2}})
	appendOne(t, w, KeyedRecord{Key: "b", Start: 0, Values: []float64{3}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names := segmentNames(t, dir)
	if len(names) != 1 {
		t.Fatalf("want one segment, got %v", names)
	}
	path := filepath.Join(dir, names[0])
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got := replayKeyedAll(t, w2, 0)
	if len(got) != 1 || got[0].Key != "a" {
		t.Fatalf("after tear, replay = %+v, want just the first record", got)
	}
	appendOne(t, w2, KeyedRecord{Key: "c", Start: 0, Values: []float64{9}})
	if got := replayKeyedAll(t, w2, 0); len(got) != 2 || got[1].Key != "c" {
		t.Fatalf("replay after repair+append = %+v, want records a and c", got)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptPayloadTruncated flips a payload byte in the tail record.
func TestCorruptPayloadTruncated(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	first := KeyedRecord{Key: "a", Start: 0, Values: []float64{1, 2}}
	appendOne(t, w, first)
	appendOne(t, w, KeyedRecord{Key: "a", Start: 2, Values: []float64{3}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentNames(t, dir)[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := replayKeyedAll(t, w2, 0); !reflect.DeepEqual(got, []KeyedRecord{first}) {
		t.Errorf("replay after corruption = %+v, want first record only", got)
	}
}

// TestRotateAndTruncateBefore seals a segment per append and truncates
// the log before covered sequence numbers with DropSealedBefore.
func TestRotateAndTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		appendOne(t, w, KeyedRecord{Key: "a", Start: i, Values: []float64{float64(i)}})
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if got := segmentNames(t, dir); len(got) != 5 { // 4 sealed + 1 active empty
		t.Fatalf("segments after rotations = %d, want 5", len(got))
	}
	// A checkpoint covering sequence numbers below 2 frees two segments.
	if err := w.DropSealedBefore(2); err != nil {
		t.Fatal(err)
	}
	if got := segmentNames(t, dir); len(got) != 3 {
		t.Errorf("segments after DropSealedBefore(2) = %d, want 3", len(got))
	}
	if got := replayKeyedAll(t, w, 0); len(got) != 2 || got[0].Start != 2 || got[1].Start != 3 {
		t.Errorf("replay after truncation = %+v", got)
	}
	// Everything covered, the active segment too: only it stays.
	if err := w.DropSealedBefore(w.NextSeq()); err != nil {
		t.Fatal(err)
	}
	if got := segmentNames(t, dir); len(got) != 1 {
		t.Errorf("segments after dropping all sealed = %d, want 1", len(got))
	}
	last := KeyedRecord{Key: "a", Start: 4, Values: []float64{4}}
	appendOne(t, w, last)
	if got := replayKeyedAll(t, w, 0); !reflect.DeepEqual(got, []KeyedRecord{last}) {
		t.Errorf("replay after truncation and append = %+v", got)
	}
}

func TestSegmentRotationBySize(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var want []KeyedRecord
	for i := int64(0); i < 10; i++ {
		r := KeyedRecord{Key: "a", Start: 3 * i, Values: []float64{1, 2, 3}}
		appendOne(t, w, r)
		want = append(want, r)
	}
	if got := segmentNames(t, dir); len(got) < 2 {
		t.Fatalf("expected size rotation to produce multiple segments, got %d", len(got))
	}
	if got := replayKeyedAll(t, w, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("replay across segments = %+v, want the 10 records in order", got)
	}
}

func TestReset(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	appendOne(t, w, KeyedRecord{Key: "a", Start: 0, Values: []float64{1, 2, 3}})
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendOne(t, w, KeyedRecord{Key: "a", Start: 3, Values: []float64{4}})
	next := w.NextSeq()
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	// Every old segment is gone; the fresh one takes the next number.
	want := []string{fmt.Sprintf("wal-%016x-0000000000000000.log", next)}
	if got := segmentNames(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("segments after reset = %v, want %v", got, want)
	}
	if got := replayKeyedAll(t, w, 0); len(got) != 0 {
		t.Errorf("replay after reset = %+v, want empty", got)
	}
	fresh := KeyedRecord{Key: "b", Start: 0, Values: []float64{9}}
	appendOne(t, w, fresh)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := replayKeyedAll(t, w2, 0); !reflect.DeepEqual(got, []KeyedRecord{fresh}) {
		t.Errorf("replay after reset and reopen = %+v", got)
	}
}

// TestFaultedAppendLeavesRecoverableLog crashes a small workload —
// appends, size rolls and an explicit rotation — at every mutating
// filesystem operation in turn, then reopens the directory through a
// clean filesystem: the log must replay every acknowledged record in
// order, plus at most the one in flight, and accept appends again.
func TestFaultedAppendLeavesRecoverableLog(t *testing.T) {
	recs := make([]KeyedRecord, 6)
	for i := range recs {
		recs[i] = KeyedRecord{Key: fmt.Sprintf("k%d", i%2), Start: int64(2 * (i / 2)), Values: []float64{float64(i), float64(i) + 0.5}}
	}
	// run appends until the first failure, as a crashed process would,
	// and returns how many records were acknowledged.
	run := func(dir string, fsys faults.FS) (acked int) {
		w, err := Open(Options{Dir: dir, FS: fsys, SegmentBytes: 96, SyncEveryAppend: true})
		if err != nil {
			return 0
		}
		for i, r := range recs {
			if err := w.AppendBatch([]KeyedRecord{r}); err != nil {
				return i
			}
			if i == 2 && w.Rotate() != nil {
				return i + 1
			}
		}
		return len(recs)
	}

	probe := faults.NewChaos(faults.OS{}, 1)
	if acked := run(t.TempDir(), probe); acked != len(recs) {
		t.Fatalf("probe run acked %d of %d", acked, len(recs))
	}
	total := probe.Ops()
	t.Logf("wal crash matrix: %d fault points", total)
	for n := 1; n <= total; n++ {
		dir := t.TempDir()
		crash := faults.CrashAt(faults.OS{}, n)
		acked := run(dir, crash)
		if crash.Fired() == 0 {
			t.Fatalf("op %d: fault never fired", n)
		}
		w, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("op %d: recovery: %v", n, err)
		}
		got := replayKeyedAll(t, w, 0)
		if len(got) < acked || len(got) > acked+1 || (len(got) > 0 && !reflect.DeepEqual(got, recs[:len(got)])) {
			t.Fatalf("op %d: recovered %+v, want the %d acknowledged records (+1 in flight at most)", n, got, acked)
		}
		appendOne(t, w, KeyedRecord{Key: "after", Values: []float64{1}})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTransientWriteErrorSelfRepairs: a torn write or a failed fsync is
// rolled back, and the next append lands cleanly after the tear is
// truncated away.
func TestTransientWriteErrorSelfRepairs(t *testing.T) {
	for _, tc := range []struct {
		name string
		rule faults.Rule
	}{
		{"write", faults.Rule{Ops: faults.OpWrite, PathContains: "wal-", Prob: 1, Count: 1, Torn: true}},
		{"sync", faults.Rule{Ops: faults.OpSync, PathContains: "wal-", Prob: 1, Count: 1}},
	} {
		chaos := faults.NewChaos(faults.OS{}, 1)
		w, err := Open(Options{Dir: t.TempDir(), FS: chaos, SyncEveryAppend: true})
		if err != nil {
			t.Fatal(err)
		}
		first := KeyedRecord{Key: "a", Start: 0, Values: []float64{1, 2}}
		appendOne(t, w, first)
		chaos.SetRules(tc.rule)
		if err := w.AppendBatch([]KeyedRecord{{Key: "a", Start: 2, Values: []float64{3, 4}}}); err == nil {
			t.Fatalf("%s: flaky append succeeded", tc.name)
		}
		// The failed batch was not acknowledged; a retry at the same
		// position must succeed, and replay must not see the failed one.
		retry := KeyedRecord{Key: "a", Start: 2, Values: []float64{5, 6}}
		appendOne(t, w, retry)
		if got := replayKeyedAll(t, w, 0); !reflect.DeepEqual(got, []KeyedRecord{first, retry}) {
			t.Errorf("%s: replay = %+v, want %+v", tc.name, got, []KeyedRecord{first, retry})
		}
	}
}

func TestSizeBytesTracksGrowthAndTruncation(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SegmentBytes: 64, SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.SizeBytes(); got != 0 {
		t.Fatalf("empty log SizeBytes = %d", got)
	}
	var prev int64
	for i := int64(0); i < 8; i++ {
		appendOne(t, w, KeyedRecord{Key: "a", Start: 3 * i, Values: []float64{1, 2, 3}})
		got := w.SizeBytes()
		if got <= prev {
			t.Fatalf("append %d: SizeBytes %d did not grow past %d", i, got, prev)
		}
		prev = got
	}
	// Seal the tail and drop every sealed segment: the log shrinks back
	// to the empty active segment.
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := w.DropSealedBefore(w.ActiveSeq()); err != nil {
		t.Fatal(err)
	}
	if got := w.SizeBytes(); got != int64(headerLen) {
		t.Errorf("SizeBytes after truncation = %d, want %d (of %d before)", got, headerLen, prev)
	}
}

// A crash (or full disk) during segment creation can leave a file whose
// header never finished — possibly sharing a sequence number with a real
// segment created by a later retry — and a directory can hold a segment
// of another format. Open must sweep both out and replay only the real
// log; Reset must remove such a file even though it was never tracked.
func TestOpenSweepsTornHeaderOrphans(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	kept := KeyedRecord{Key: "a", Start: 0, Values: []float64{1, 2, 3}}
	appendOne(t, w, kept)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn creation: same sequence number as the real segment, a
	// different start field, header cut off mid-magic.
	orphan := filepath.Join(dir, fmt.Sprintf("wal-%016x-%016x.log", 0, uint64(7)))
	if err := os.WriteFile(orphan, []byte(magic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}
	// A whole segment of a foreign format (the single-stream log's magic)
	// after it.
	foreign := filepath.Join(dir, fmt.Sprintf("wal-%016x-%016x.log", 1, 0))
	if err := os.WriteFile(foreign, append([]byte("SWL1"), make([]byte, 8+recHdrLen+16)...), 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("open with orphans: %v", err)
	}
	for _, path := range []string{orphan, foreign} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("orphan %s not swept: %v", filepath.Base(path), err)
		}
	}
	if got := replayKeyedAll(t, w2, 0); !reflect.DeepEqual(got, []KeyedRecord{kept}) {
		t.Fatalf("replay after sweep = %+v, want the real record", got)
	}

	// Reset must clear untracked leftovers too, or its fresh first
	// segment can collide with one under O_EXCL.
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%016x-0000000000000000.log", w2.NextSeq())), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w2.Reset(); err != nil {
		t.Fatalf("reset over untracked orphan: %v", err)
	}
	appendOne(t, w2, KeyedRecord{Key: "a", Start: 0, Values: []float64{4}})
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}

// countingFS counts the bytes each read returns, per file name.
type countingFS struct {
	faults.OS
	read map[string]int
}

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	b, err := c.OS.ReadFile(name)
	c.read[filepath.Base(name)] += len(b)
	return b, err
}

func (c *countingFS) ReadPrefix(name string, n int) ([]byte, error) {
	b, err := c.OS.ReadPrefix(name, n)
	c.read[filepath.Base(name)] += len(b)
	return b, err
}

// TestOpenReadsSealedHeadersOnly: over a three-segment log, Open reads
// only the header of each sealed segment and scans the active one once,
// so replay is the only full read of a sealed segment. A segment whose
// header never finished writing is still swept.
func TestOpenReadsSealedHeadersOnly(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	var want []KeyedRecord
	for i := 0; i < 3; i++ {
		if i > 0 {
			if err := w.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
		r := KeyedRecord{Key: "a", Start: int64(4 * i), Values: []float64{1, 2, 3, 4}}
		appendOne(t, w, r)
		want = append(want, r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segmentNames(t, dir)
	if len(segs) != 3 {
		t.Fatalf("segments %v, want 3", segs)
	}
	sizes := map[string]int{}
	for _, name := range segs {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sizes[name] = int(fi.Size())
	}
	orphan := fmt.Sprintf("wal-%016x-%016x.log", 1, uint64(7))
	if err := os.WriteFile(filepath.Join(dir, orphan), []byte(magic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}

	fsys := &countingFS{read: map[string]int{}}
	w2, err := Open(Options{Dir: dir, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range segs {
		want := headerLen
		if i == len(segs)-1 {
			want += sizes[name] // openLast's scan of the active segment
		}
		if got := fsys.read[name]; got != want {
			t.Errorf("Open read %d bytes of %s (%d bytes on disk), want %d", got, name, sizes[name], want)
		}
	}
	if got := fsys.read[orphan]; got != 3 {
		t.Errorf("Open read %d bytes of the torn orphan, want its 3", got)
	}
	if _, err := os.Stat(filepath.Join(dir, orphan)); !os.IsNotExist(err) {
		t.Fatalf("bad-header segment not swept: %v", err)
	}
	if got := replayKeyedAll(t, w2, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay = %+v, want %+v", got, want)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestKeyedBadKeys(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch([]KeyedRecord{{Key: "", Values: []float64{1}}}); err == nil {
		t.Error("empty key accepted")
	}
	long := strings.Repeat("k", MaxKeyLen+1)
	if err := w.AppendBatch([]KeyedRecord{{Key: long, Values: []float64{1}}}); err == nil {
		t.Error("oversized key accepted")
	}
}

func TestKeyedCoveredSeqSkipsSealedSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	appendOne(t, w, KeyedRecord{Key: "a", Start: 0, Values: []float64{1}})
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	sealedSeq := w.ActiveSeq() // the new active segment's seq; sealed ones are below it
	appendOne(t, w, KeyedRecord{Key: "a", Start: 1, Values: []float64{2}})

	got := replayKeyedAll(t, w, sealedSeq)
	if len(got) != 1 || got[0].Start != 1 {
		t.Fatalf("covered replay = %+v, want only the post-rotation record", got)
	}
	// DropSealedBefore removes the covered segment; full replay then sees
	// only the survivor too.
	if err := w.DropSealedBefore(sealedSeq); err != nil {
		t.Fatal(err)
	}
	if got := segmentNames(t, dir); len(got) != 1 {
		t.Fatalf("%d segments after drop, want 1", len(got))
	}
	if got := replayKeyedAll(t, w, 0); len(got) != 1 || got[0].Start != 1 {
		t.Fatalf("replay after drop = %+v, want only the post-rotation record", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestKeyedBatchPoisonOnSyncFailure(t *testing.T) {
	// A failed group fsync must discard the WHOLE batch: recovery may not
	// surface any record of it, even though the write itself succeeded.
	dir := t.TempDir()
	chaos := faults.NewChaos(faults.OS{}, 1)
	w, err := Open(Options{Dir: dir, FS: chaos, SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	appendOne(t, w, KeyedRecord{Key: "a", Start: 0, Values: []float64{1}})
	chaos.SetRules(faults.Rule{Ops: faults.OpSync, PathContains: "wal-", Prob: 1})
	batch := []KeyedRecord{
		{Key: "a", Start: 1, Values: []float64{2}},
		{Key: "b", Start: 0, Values: []float64{3}},
	}
	if err := w.AppendBatch(batch); err == nil {
		t.Fatal("append with failing fsync succeeded")
	}
	chaos.Clear()
	// Next append repairs the tail and lands after the surviving record.
	appendOne(t, w, KeyedRecord{Key: "c", Start: 0, Values: []float64{4}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got := replayKeyedAll(t, w2, 0)
	keys := make([]string, len(got))
	for i, r := range got {
		keys[i] = r.Key
	}
	if !reflect.DeepEqual(keys, []string{"a", "c"}) {
		t.Fatalf("recovered keys = %v, want [a c] (failed batch fully discarded)", keys)
	}
}

func TestKeyedResetStartsFresh(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	appendOne(t, w, KeyedRecord{Key: "a", Start: 0, Values: []float64{1}})
	covered := w.NextSeq() // a restore records this before Reset
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	appendOne(t, w, KeyedRecord{Key: "b", Start: 0, Values: []float64{2}})
	// The post-Reset segment's seq is >= covered, so a covered replay
	// still sees the new record while skipping everything pre-reset.
	got := replayKeyedAll(t, w, covered)
	if len(got) != 1 || got[0].Key != "b" {
		t.Fatalf("replay after reset = %+v, want only the post-reset record", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedRollKeepsBatch: the roll to a new segment runs after the
// batch is written and synced, so its failure must not fail the batch;
// the next append creates the segment instead.
func TestFailedRollKeepsBatch(t *testing.T) {
	dir := t.TempDir()
	chaos := faults.NewChaos(faults.OS{}, 1)
	w, err := Open(Options{Dir: dir, FS: chaos, SegmentBytes: 64, SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	// The first creation makes segment 0; the second, the roll, fails.
	chaos.SetRules(faults.Rule{Ops: faults.OpCreate, PathContains: "wal-", Prob: 1, After: 1, Count: 1})
	batch := []KeyedRecord{{Key: "a", Start: 0, Values: []float64{1, 2, 3, 4, 5, 6}}}
	if err := w.AppendBatch(batch); err != nil {
		t.Fatalf("durable batch failed by its roll: %v", err)
	}
	if chaos.Fired() != 1 {
		t.Fatalf("roll fault fired %d times, want 1", chaos.Fired())
	}
	if got := replayKeyedAll(t, w, 0); !reflect.DeepEqual(got, batch) {
		t.Fatalf("replay after failed roll = %+v, want the batch once", got)
	}
	next := KeyedRecord{Key: "a", Start: 6, Values: []float64{7}}
	appendOne(t, w, next)
	want := []string{"wal-0000000000000000-0000000000000000.log", "wal-0000000000000001-0000000000000000.log"}
	if got := segmentNames(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("segments = %v, want %v", got, want)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := replayKeyedAll(t, w2, 0); !reflect.DeepEqual(got, append(batch, next)) {
		t.Fatalf("replay after reopen = %+v", got)
	}
}

// TestFailedCreateLeavesNoSegment: a segment creation that fails after
// its exclusive create removes the file, so the retry, which reuses the
// sequence number and so the name, does not collide with it.
func TestFailedCreateLeavesNoSegment(t *testing.T) {
	for _, tc := range []struct {
		name string
		rule faults.Rule
	}{
		{"header write", faults.Rule{Ops: faults.OpWrite, PathContains: "wal-", Prob: 1, Count: 1}},
		// The first sync seals the old segment; the second is the header's.
		{"header sync", faults.Rule{Ops: faults.OpSync, PathContains: "wal-", Prob: 1, After: 1, Count: 1}},
		{"directory sync", faults.Rule{Ops: faults.OpSyncDir, Prob: 1, Count: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			chaos := faults.NewChaos(faults.OS{}, 1)
			w, err := Open(Options{Dir: dir, FS: chaos, SyncEveryAppend: true})
			if err != nil {
				t.Fatal(err)
			}
			want := []KeyedRecord{{Key: "a", Start: 0, Values: []float64{1}}}
			appendOne(t, w, want[0])
			chaos.SetRules(tc.rule)
			if err := w.Rotate(); err == nil {
				t.Fatal("rotate with a failing segment creation succeeded")
			}
			chaos.Clear()
			for i := int64(1); i <= 3; i++ {
				r := KeyedRecord{Key: "a", Start: i, Values: []float64{float64(i + 1)}}
				appendOne(t, w, r)
				want = append(want, r)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w2, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if got := replayKeyedAll(t, w2, 0); !reflect.DeepEqual(got, want) {
				t.Fatalf("replay = %+v, want %+v", got, want)
			}
		})
	}
}

// FuzzScanSegment feeds the segment decoder arbitrary bytes, as a crash
// can leave any prefix of a segment and a failing disk any bytes at all.
// The scanner must not panic and must return a valid prefix no longer
// than its input; scanning that prefix again must return the same
// prefix and the same records.
func FuzzScanSegment(f *testing.F) {
	dir := f.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	if err := w.AppendBatch([]KeyedRecord{
		{Key: "a", Start: 0, Values: []float64{1, -2.5, 1e9}},
		{Key: strings.Repeat("k", MaxKeyLen), Start: 5, Values: []float64{0.125}},
		{Key: "a", Delete: true},
	}); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, "wal-0000000000000000-0000000000000000.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	for _, cut := range []int{0, 3, headerLen, headerLen + 5, len(seg) / 2, len(seg) - 1} {
		f.Add(seg[:cut])
	}
	for _, i := range []int{0, headerLen, headerLen + 4, headerLen + recHdrLen + 1, len(seg) - 1} {
		flipped := bytes.Clone(seg)
		flipped[i] ^= 0x40
		f.Add(flipped)
	}
	// scan returns the valid prefix and the records re-encoded, which
	// compares values bit for bit (NaNs included).
	scan := func(data []byte) (int64, []byte) {
		var enc []byte
		valid, _ := scanSegment(data, func(r KeyedRecord) error {
			enc = appendRecord(enc, r)
			return nil
		})
		return valid, enc
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		valid, recs := scan(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		again, recsAgain := scan(data[:valid])
		if again != valid || !bytes.Equal(recs, recsAgain) {
			t.Fatalf("rescanning the valid prefix gave %d bytes and records %x, want %d and %x", again, recsAgain, valid, recs)
		}
	})
}
