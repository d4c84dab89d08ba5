package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"streamhist/internal/faults"
)

// fileClass tells WAL segments from checkpoint files.
type fileClass uint8

const (
	classOther fileClass = iota
	classWAL
	classCkpt
)

// classify maps a durability-layer path to its class and shard stripe
// (DataDir/shard-NNNN/wal-*.log, DataDir/shard-NNNN/*.ckpt.tmp).
func classify(name string) (fileClass, int) {
	base := filepath.Base(name)
	shard := -1
	_, _ = fmt.Sscanf(filepath.Base(filepath.Dir(name)), "shard-%d", &shard) // -1 when not striped
	switch {
	case strings.HasPrefix(base, "wal-") && strings.HasSuffix(base, ".log"):
		return classWAL, shard
	case strings.HasSuffix(base, ".ckpt.tmp"):
		return classCkpt, shard
	}
	return classOther, shard
}

// fsOp is one timed write or fsync on a WAL segment. Append marks the
// group-commit path: a record write, or the fsync right after one; the
// segment header written at creation and the fsync that seals a segment
// at a checkpoint's rotation are not appends.
type fsOp struct {
	sync, append bool
	shard        int
	sp           span
	bytes        int
}

// ckptSave is one checkpoint file: from creating its temp file to the
// rename that publishes it.
type ckptSave struct {
	shard int
	sp    span
	bytes int
}

// timingFS is a faults.FS over the real filesystem that times and counts
// the writes and fsyncs on WAL and checkpoint files.
type timingFS struct {
	faults.OS
	clk clock

	mu      sync.Mutex
	wal     []fsOp
	pending map[string]*ckptSave // temp path -> save in progress
	saves   []ckptSave
}

func newTimingFS(clk clock) *timingFS {
	return &timingFS{clk: clk, pending: map[string]*ckptSave{}}
}

func (t *timingFS) now() time.Duration { return t.clk.now() }

// OpenFile opens through the real filesystem and wraps WAL and
// checkpoint files in timed handles.
func (t *timingFS) OpenFile(name string, flag int, perm os.FileMode) (faults.File, error) {
	start := t.now()
	f, err := t.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	class, shard := classify(name)
	switch class {
	case classWAL:
		return &timedFile{File: f, fs: t, shard: shard, header: flag&os.O_EXCL != 0}, nil
	case classCkpt:
		t.mu.Lock()
		save := &ckptSave{shard: shard, sp: span{Start: start}}
		t.pending[name] = save
		t.mu.Unlock()
		return &timedFile{File: f, fs: t, shard: shard, save: save}, nil
	}
	return f, nil
}

// Rename publishes a checkpoint: its save ends here.
func (t *timingFS) Rename(oldname, newname string) error {
	err := t.OS.Rename(oldname, newname)
	end := t.now()
	t.mu.Lock()
	if save, ok := t.pending[oldname]; ok {
		delete(t.pending, oldname)
		if err == nil {
			save.sp.End = end
			t.saves = append(t.saves, *save)
		}
	}
	t.mu.Unlock()
	return err
}

// snapshot returns copies of the recorded WAL ops and checkpoint saves.
func (t *timingFS) snapshot() ([]fsOp, []ckptSave) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]fsOp(nil), t.wal...), append([]ckptSave(nil), t.saves...)
}

// timedFile times the writes and fsyncs of one WAL or checkpoint file.
type timedFile struct {
	faults.File
	fs    *timingFS
	shard int
	save  *ckptSave // non-nil for a checkpoint temp file
	// header is set on a freshly created segment until its header is
	// written; wrote is set by a record write until the next fsync.
	header, wrote bool
}

func (f *timedFile) Write(p []byte) (int, error) {
	start := f.fs.now()
	n, err := f.File.Write(p)
	f.record(false, start, n)
	return n, err
}

func (f *timedFile) Sync() error {
	start := f.fs.now()
	err := f.File.Sync()
	f.record(true, start, 0)
	return err
}

func (f *timedFile) record(sync bool, start time.Duration, n int) {
	end := f.fs.now()
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.save != nil {
		f.save.bytes += n
		return
	}
	op := fsOp{sync: sync, shard: f.shard, sp: span{Start: start, End: end}, bytes: n}
	switch {
	case sync:
		op.append, f.wrote = f.wrote, false
	case f.header:
		f.header = false
	default:
		op.append, f.wrote = true, true
	}
	f.fs.wal = append(f.fs.wal, op)
}
