package core

import (
	"fmt"

	"streamhist/internal/codec"
	"streamhist/internal/prefix"
)

// snapshot format: magic "SFW1", then n, b, eps, delta, a reserved byte,
// seen, window values. The reserved byte once selected the linear-scan
// ablation: it is written as 0 and ignored on read, so no snapshot can
// switch a restored window off the production engine. The interval queues
// are a pure function of the window, so they are rebuilt on restore rather
// than persisted.
const snapshotMagic = "SFW1"

// MaxSnapshotWindow bounds the window capacity UnmarshalBinary will
// allocate for, so a corrupt or hostile snapshot cannot trigger a
// multi-gigabyte allocation. Construct larger windows explicitly with New.
const MaxSnapshotWindow = 1 << 22

// MarshalBinary snapshots the maintainer's configuration and window so a
// restarted process can resume exactly where it left off, implementing
// encoding.BinaryMarshaler.
func (f *FixedWindow) MarshalBinary() ([]byte, error) {
	w := codec.NewWriter(snapshotMagic)
	w.Int(f.sums.Capacity())
	w.Int(f.b)
	w.Float64(f.eps)
	w.Float64(f.delta)
	w.Bool(false) // reserved
	w.Int64(f.sums.Seen())
	w.Floats(f.sums.Values())
	return w.Bytes(), nil
}

// UnmarshalBinary restores a snapshot produced by MarshalBinary,
// implementing encoding.BinaryUnmarshaler. The receiver is replaced only
// on success.
func (f *FixedWindow) UnmarshalBinary(data []byte) error {
	r, err := codec.NewReader(data, snapshotMagic)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	n := r.Int()
	if n > MaxSnapshotWindow {
		return fmt.Errorf("core: snapshot window capacity %d exceeds limit %d", n, MaxSnapshotWindow)
	}
	b := r.Int()
	if b > 1<<20 {
		return fmt.Errorf("core: snapshot bucket budget %d exceeds limit %d", b, 1<<20)
	}
	eps := r.Float64()
	delta := r.Float64()
	r.Bool() // reserved
	seen := r.Int64()
	values := r.Floats()
	if err := r.Done(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	restored, err := NewWithDelta(n, b, eps, delta)
	if err != nil {
		return fmt.Errorf("core: snapshot config invalid: %w", err)
	}
	sums, err := prefix.RestoreSlidingSums(n, values, seen)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	restored.sums = sums
	restored.m = f.m                                        // the metrics attachment survives a restore
	restored.tr, restored.traceParent = f.tr, f.traceParent // so does the flight recorder
	// The incremental-engine switch is an attachment like the
	// instrumentation, not window state: it survives the restore, and the
	// exact rebuild below re-establishes a fresh cover for it to maintain.
	restored.incrOn = f.incrOn
	restored.rebuild()
	*f = *restored
	return nil
}
