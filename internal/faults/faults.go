// Package faults abstracts the filesystem operations the durability layer
// (internal/wal, internal/checkpoint) performs, so tests can inject
// failures at any individual operation and prove that recovery from the
// surviving on-disk state is correct at every crash point.
//
// Two implementations are provided: OS, a thin passthrough to the os
// package, and Chaos, a wrapper that applies a mutable set of fault
// rules to every mutating operation. CrashAt configures a Chaos as the
// crash injector: it fails — after a torn half-write, when the operation
// is a Write — the Nth mutating operation and every one after it,
// modelling a process that crashed mid-operation and never wrote again.
package faults

import (
	"errors"
	"io"
	"io/fs"
	"os"
)

// File is the subset of *os.File the durability layer writes through.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FS is the set of filesystem operations the durability layer performs.
// Read-side operations never fail under injection (a crashed process does
// not lose the ability of a *future* process to read what reached disk).
type FS interface {
	// OpenFile opens name with os-style flags. Creation (O_CREATE on a
	// missing file) counts as a mutating operation under injection.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadFile reads the whole file.
	ReadFile(name string) ([]byte, error)
	// ReadPrefix reads at most n bytes from the start of the file; a
	// shorter file yields all of it.
	ReadPrefix(name string, n int) ([]byte, error)
	// ReadDir lists a directory.
	ReadDir(name string) ([]fs.DirEntry, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes a file.
	Remove(name string) error
	// Truncate cuts name to size bytes (torn-tail repair).
	Truncate(name string, size int64) error
	// MkdirAll creates a directory tree.
	MkdirAll(name string, perm os.FileMode) error
	// SyncDir fsyncs a directory so renames/creates within it are durable.
	SyncDir(name string) error
	// Stat stats a file.
	Stat(name string) (fs.FileInfo, error)
}

// OS is the real filesystem.
type OS struct{}

// OpenFile opens via os.OpenFile.
func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// ReadFile reads via os.ReadFile.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// ReadPrefix opens name and reads at most n bytes from its start.
func (OS) ReadPrefix(name string, n int) ([]byte, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	m, rerr := io.ReadFull(f, buf)
	cerr := f.Close()
	if rerr != nil && !errors.Is(rerr, io.EOF) && !errors.Is(rerr, io.ErrUnexpectedEOF) {
		return nil, rerr
	}
	return buf[:m], cerr
}

// ReadDir lists via os.ReadDir.
func (OS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// Rename renames via os.Rename.
func (OS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove removes via os.Remove.
func (OS) Remove(name string) error { return os.Remove(name) }

// Truncate truncates via os.Truncate.
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// MkdirAll creates via os.MkdirAll.
func (OS) MkdirAll(name string, perm os.FileMode) error { return os.MkdirAll(name, perm) }

// SyncDir opens the directory and fsyncs it.
func (OS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Stat stats via os.Stat.
func (OS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

// ErrInjected is the error an injected fault returns unless its rule
// names another.
var ErrInjected = errors.New("faults: injected failure")

// IsInjected reports whether err stems from an injected fault.
func IsInjected(err error) bool { return errors.Is(err, ErrInjected) }
