package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"streamhist/internal/faults"
)

func TestSaveLatestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := Save(nil, 0, nil, dir, 42, []byte("state-at-42")); err != nil {
		t.Fatal(err)
	}
	if err := Save(nil, 0, nil, dir, 99, []byte("state-at-99")); err != nil {
		t.Fatal(err)
	}
	blob, seen, err := Latest(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if seen != 99 || !bytes.Equal(blob, []byte("state-at-99")) {
		t.Errorf("Latest = (%q, %d)", blob, seen)
	}
}

func TestLatestEmptyDir(t *testing.T) {
	blob, seen, err := Latest(nil, t.TempDir())
	if err != nil || blob != nil || seen != 0 {
		t.Errorf("Latest on empty dir = (%v, %d, %v)", blob, seen, err)
	}
	// A nonexistent dir is also a fresh start, not an error.
	blob, seen, err = Latest(nil, filepath.Join(t.TempDir(), "missing"))
	if err != nil || blob != nil || seen != 0 {
		t.Errorf("Latest on missing dir = (%v, %d, %v)", blob, seen, err)
	}
}

// TestLatestSkipsCorrupt verifies that a corrupt newest checkpoint falls
// back to the previous good one — the reason two are retained.
func TestLatestSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	if err := Save(nil, 0, nil, dir, 10, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := Save(nil, 0, nil, dir, 20, []byte("soon-corrupt")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fileName(20))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	blob, seen, err := Latest(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if seen != 10 || string(blob) != "good" {
		t.Errorf("Latest after corruption = (%q, %d), want fallback to 10", blob, seen)
	}
	// Truncated newest (torn mid-write on a weird filesystem): same story.
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, seen, _ := Latest(nil, dir); seen != 10 {
		t.Errorf("Latest after truncation picked seen=%d", seen)
	}
}

func TestPrune(t *testing.T) {
	dir := t.TempDir()
	for _, seen := range []int64{1, 2, 3, 4} {
		if err := Save(nil, 0, nil, dir, seen, []byte{byte(seen)}); err != nil {
			t.Fatal(err)
		}
	}
	// A leftover temp file from an interrupted save.
	if err := os.WriteFile(filepath.Join(dir, fileName(5)+".tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Prune(nil, dir, 2); err != nil {
		t.Fatalf("healthy prune reported %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("after prune: %v", names)
	}
	if _, seen, _ := Latest(nil, dir); seen != 4 {
		t.Errorf("newest survived prune as seen=%d, want 4", seen)
	}
}

// TestPruneReportsRemoveFailure proves a disk that refuses deletes is
// reported instead of silently swallowed: the caller can log and count
// the failure while the checkpoints themselves stay intact.
func TestPruneReportsRemoveFailure(t *testing.T) {
	dir := t.TempDir()
	for _, seen := range []int64{1, 2, 3} {
		if err := Save(nil, 0, nil, dir, seen, []byte{byte(seen)}); err != nil {
			t.Fatal(err)
		}
	}
	chaos := faults.NewChaos(faults.OS{}, 1)
	chaos.SetRules(faults.Rule{Ops: faults.OpRemove, Prob: 1})
	err := Prune(chaos, dir, 1)
	if err == nil {
		t.Fatal("Prune swallowed the Remove failure")
	}
	if !faults.IsInjected(err) {
		t.Errorf("error %v does not unwrap to ErrInjected", err)
	}
	// Nothing was removed, but every checkpoint is still loadable.
	if _, seen, lerr := Latest(nil, dir); lerr != nil || seen != 3 {
		t.Errorf("Latest after failed prune = (%d, %v)", seen, lerr)
	}
}

// TestSaveFaultPreservesPrevious proves atomicity: wherever a save
// crashes, the previous checkpoint still loads.
func TestSaveFaultPreservesPrevious(t *testing.T) {
	// Count the ops of one full save.
	probe := faults.NewChaos(faults.OS{}, 1)
	dir := t.TempDir()
	if err := Save(nil, 0, probe, dir, 1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()
	if total == 0 {
		t.Fatal("probe counted no ops")
	}
	for n := 1; n <= total; n++ {
		dir := t.TempDir()
		if err := Save(nil, 0, nil, dir, 1, []byte("first")); err != nil {
			t.Fatal(err)
		}
		inj := faults.CrashAt(faults.OS{}, n)
		err := Save(nil, 0, inj, dir, 2, []byte("second"))
		blob, seen, lerr := Latest(nil, dir)
		if lerr != nil {
			t.Fatalf("fault at op %d: Latest: %v", n, lerr)
		}
		if err != nil {
			// Crashed save: the first checkpoint must be intact. (The
			// rename may already have happened when the fault hit SyncDir,
			// in which case the second is durably complete too — both are
			// valid outcomes.)
			if !(seen == 1 && string(blob) == "first") && !(seen == 2 && string(blob) == "second") {
				t.Errorf("fault at op %d: Latest = (%q, %d)", n, blob, seen)
			}
		} else if seen != 2 || string(blob) != "second" {
			t.Errorf("no fault at op %d but Latest = (%q, %d)", n, blob, seen)
		}
	}
}
