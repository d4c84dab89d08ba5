package faults

import (
	"os"
	"path/filepath"
	"testing"
)

// The TestInjector tests check the crash injector CrashAt builds.

func TestInjectorDisabledCountsOps(t *testing.T) {
	dir := t.TempDir()
	c := NewChaos(OS{}, 1)
	f, err := c.OpenFile(filepath.Join(dir, "a"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")); err != nil {
		t.Fatal(err)
	}
	// create + write + sync + rename = 4 (close is free)
	if got := c.Ops(); got != 4 {
		t.Errorf("Ops = %d, want 4", got)
	}
	if c.Fired() != 0 {
		t.Error("rule-less filesystem injected a fault")
	}
}

func TestInjectorTripsAtNAndStaysTripped(t *testing.T) {
	dir := t.TempDir()
	c := CrashAt(OS{}, 2)
	f, err := c.OpenFile(filepath.Join(dir, "a"), os.O_WRONLY|os.O_CREATE, 0o644) // op 1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("doomed write")); err == nil { // op 2: fault
		t.Fatal("op 2 did not fault")
	} else if !IsInjected(err) {
		t.Fatalf("wrong error: %v", err)
	}
	if c.Fired() == 0 {
		t.Error("not tripped after fault")
	}
	// Everything mutating keeps failing: the process "crashed".
	if _, err := f.Write([]byte("x")); err == nil {
		t.Error("write after trip succeeded")
	}
	if err := f.Sync(); err == nil {
		t.Error("sync after trip succeeded")
	}
	if err := c.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")); err == nil {
		t.Error("rename after trip succeeded")
	}
	// Reads still pass through.
	if _, err := c.ReadFile(filepath.Join(dir, "a")); err != nil {
		t.Errorf("read after trip failed: %v", err)
	}
}

// TestInjectorShortWrite checks the faulting write is torn, not absent:
// half the buffer reaches the file, like a real crash mid-write.
func TestInjectorShortWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	c := CrashAt(OS{}, 2)
	f, err := c.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644) // op 1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("0123456789")); err == nil { // op 2
		t.Fatal("expected injected failure")
	}
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "01234" {
		t.Errorf("torn write left %q, want first half", data)
	}
}

func TestOpenFileCountsOnlyCreation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "exists")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := CrashAt(OS{}, 1)
	// Opening an existing file, even with O_CREATE, is not a metadata write.
	f, err := c.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open of existing file faulted: %v", err)
	}
	f.Close()
	if c.Fired() != 0 {
		t.Error("tripped without a mutating op")
	}
	// Creating a missing file is.
	if _, err := c.OpenFile(filepath.Join(dir, "new"), os.O_WRONLY|os.O_CREATE, 0o644); err == nil {
		t.Error("creation did not fault")
	}
}

// TestInjectorSyncFaultLeavesWrittenBytes: a fault at the Sync point
// (op after a clean torn-free write) must leave the full written bytes
// in the file — only durability failed, not the write — and every later
// Sync keeps failing.
func TestInjectorSyncFaultLeavesWrittenBytes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	c := CrashAt(OS{}, 3)
	f, err := c.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644) // op 1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("0123456789")); err != nil { // op 2
		t.Fatal(err)
	}
	if err := f.Sync(); err == nil { // op 3: fault
		t.Fatal("sync did not fault")
	} else if !IsInjected(err) {
		t.Fatalf("wrong error: %v", err)
	}
	if err := f.Sync(); err == nil {
		t.Error("sync after trip succeeded")
	}
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "0123456789" {
		t.Errorf("sync fault disturbed file contents: %q", data)
	}
}

// TestInjectorSyncDirFault: SyncDir is a counted mutating op (it is the
// durability point of renames); a fault there fails it and trips the
// injector, while the rename it would have made durable stays visible.
func TestInjectorSyncDirFault(t *testing.T) {
	dir := t.TempDir()
	old, new := filepath.Join(dir, "a.tmp"), filepath.Join(dir, "a")
	if err := os.WriteFile(old, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := CrashAt(OS{}, 2)
	if err := c.Rename(old, new); err != nil { // op 1
		t.Fatal(err)
	}
	if err := c.SyncDir(dir); err == nil { // op 2: fault
		t.Fatal("syncdir did not fault")
	} else if !IsInjected(err) {
		t.Fatalf("wrong error: %v", err)
	}
	if c.Fired() == 0 {
		t.Error("not tripped after syncdir fault")
	}
	// The rename itself reached the (possibly un-durable) directory.
	if _, err := os.Stat(new); err != nil {
		t.Errorf("renamed file missing after syncdir fault: %v", err)
	}
	if err := c.SyncDir(dir); err == nil {
		t.Error("syncdir after trip succeeded")
	}
}
