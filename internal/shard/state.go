package shard

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"streamhist/internal/agglom"
	"streamhist/internal/core"
	"streamhist/internal/drift"
	"streamhist/internal/obs"
	"streamhist/internal/quality"
	"streamhist/internal/quantile"
	"streamhist/internal/stream"
	"streamhist/internal/trace"
	"streamhist/internal/vhist"
)

// State is the full summary set of one stream: the durable fixed-window
// histogram plus the whole-stream auxiliaries (agglomerative histogram,
// GK quantiles, equi-depth value histogram, drift detector, running
// stats). Only the fixed window is checkpointed; the auxiliaries are
// rebuilt from the replayed WAL tail on recovery, exactly like the
// single-stream daemon before it.
//
// Each State carries its own lock, mu, which serializes everything that
// touches its summaries: the shard loop holds it around one request's
// apply and audit, Engine.View around its callback, and checkpoint
// encoding around each window snapshot. Readers of different streams
// therefore never wait on each other. The window's position (FW.Seen)
// moves only in the loop's apply, which also holds the shard's write
// lock, so the loop's plan phase reads it under the write lock alone.
type State struct {
	mu sync.Mutex

	FW    *core.FixedWindow
	Agg   *agglom.Summary
	GK    *quantile.GK
	Sed   *vhist.StreamingEqualDepth
	Det   *drift.Detector
	Stats stream.Counter
	// Aud is the stream's shadow auditor; nil unless the engine was
	// configured with Config.Audit. Only the loop's apply mutates it,
	// under both the shard's write lock and mu, so a reader may hold
	// either.
	Aud *quality.Auditor

	// aggCounted is Agg's share of the engine's endpoint gauge: its
	// StoredEndpoints as of the last countEndpoints. Only holders of the
	// owning shard's write lock touch it.
	aggCounted int
}

// Factory builds the State for a newly created stream key. The engine
// normalizes instrumentation afterward (registry and tracer attachment),
// so factories only decide the summary parameters.
type Factory func(key string) (*State, error)

// NewState builds the standard auxiliary summary set around an existing
// fixed window, deriving their parameters from it (bucket budget and
// epsilon follow the window's own configuration). It is the one state
// builder shared by the default per-key factory, snapshot restore, and
// crash recovery, so all three produce identical summaries for identical
// windows.
func NewState(fw *core.FixedWindow) (*State, error) {
	b, eps := fw.Buckets(), fw.Epsilon()
	agg, err := agglom.New(b, eps)
	if err != nil {
		return nil, err
	}
	gk, err := quantile.NewGK(0.01)
	if err != nil {
		return nil, err
	}
	sed, err := vhist.NewStreamingEqualDepth(b, 0.25/float64(b))
	if err != nil {
		return nil, err
	}
	det, err := drift.NewDetector(50)
	if err != nil {
		return nil, err
	}
	return &State{FW: fw, Agg: agg, GK: gk, Sed: sed, Det: det}, nil
}

// restoreWindow decodes blob into st's window — the factory's, so the
// stream keeps the engine the factory chose. When the snapshot keeps the
// factory's bucket budget and epsilon, the auxiliaries st already holds
// fit the restored window and st is returned; otherwise a fresh state is
// built around the window, so the auxiliaries follow the snapshot.
func restoreWindow(st *State, blob []byte) (*State, error) {
	b, eps := st.FW.Buckets(), st.FW.Epsilon()
	if err := st.FW.UnmarshalBinary(blob); err != nil {
		return nil, err
	}
	if st.FW.Buckets() == b && math.Float64bits(st.FW.Epsilon()) == math.Float64bits(eps) {
		return st, nil
	}
	return NewState(st.FW)
}

// countEndpoints moves g by the change in Agg's stored endpoints since
// the last call, so g stays the sum over every live stream. The shard
// calls it after each request's points land instead of recounting per
// point.
func (st *State) countEndpoints(g *obs.Gauge) {
	if n := st.Agg.StoredEndpoints(); n != st.aggCounted {
		g.Add(float64(n - st.aggCounted))
		st.aggCounted = n
	}
}

// uncountEndpoints takes st's share out of g; the shard calls it wherever
// it discards st.
func (st *State) uncountEndpoints(g *obs.Gauge) {
	g.Add(-float64(st.aggCounted))
	st.aggCounted = 0
}

// guardUnlock pairs with st.mu.Lock() as `defer st.guardUnlock(sh)`
// around a stream critical section, as the shard's guardUnlock does for
// the shard lock: on the normal path it is just Unlock; after a panic it
// releases the stream lock, quarantines sh (the stream may be half
// mutated) and re-panics as *LockedPanic.
func (st *State) guardUnlock(sh *shard) {
	if p := recover(); p != nil {
		st.mu.Unlock()
		panic(sh.quarantine(p))
	}
	st.mu.Unlock()
}

// marshalWindow snapshots the fixed window under the stream's lock, so a
// reader's flush cannot interleave with the encoding.
func (st *State) marshalWindow() ([]byte, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.FW.MarshalBinary()
}

// attach wires the state's instrumentation into the engine's registry
// and flight recorder. Metric names are shared across keys, so the
// registry's dedup index aggregates all streams into one bounded set of
// series instead of one per key.
func (st *State) attach(reg *obs.Registry, tr *trace.Recorder) {
	st.FW.SetRegistry(reg)
	st.Agg.SetRegistry(reg)
	if tr != nil {
		st.FW.SetTracer(tr)
	}
}

// Checkpoint container format: one file per shard holding every stream's
// fixed-window snapshot plus the WAL sequence number the container
// covers.
//
//	byte   version (1)
//	uint64 coveredSeq — replay skips WAL segments with seq < coveredSeq
//	uint32 numKeys
//	per key: uint32 keyLen | key | uint32 blobLen | fixed-window blob
const containerVersion = 1

// encodeContainer serializes every stream's fixed window. Keys are
// sorted so identical state always produces identical bytes.
func encodeContainer(coveredSeq uint64, streams map[string]*State) ([]byte, error) {
	keys := make([]string, 0, len(streams))
	for k := range streams {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]byte, 0, 64*len(streams))
	out = append(out, containerVersion)
	out = binary.LittleEndian.AppendUint64(out, coveredSeq)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(keys)))
	for _, k := range keys {
		blob, err := streams[k].marshalWindow()
		if err != nil {
			return nil, fmt.Errorf("shard: marshaling stream %q: %w", k, err)
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(len(k)))
		out = append(out, k...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(blob)))
		out = append(out, blob...)
	}
	return out, nil
}

// decodeContainer parses a checkpoint container into per-key window
// blobs. The container arrives CRC-validated by the checkpoint layer, so
// structural damage here means a version mismatch or a bug, not disk
// corruption — both are errors, never silently skipped.
func decodeContainer(data []byte) (coveredSeq uint64, blobs map[string][]byte, err error) {
	if len(data) < 1+8+4 {
		return 0, nil, fmt.Errorf("shard: checkpoint container truncated")
	}
	if data[0] != containerVersion {
		return 0, nil, fmt.Errorf("shard: unknown checkpoint container version %d", data[0])
	}
	coveredSeq = binary.LittleEndian.Uint64(data[1:])
	n := int(binary.LittleEndian.Uint32(data[9:]))
	off := 13
	blobs = make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		if len(data)-off < 4 {
			return 0, nil, fmt.Errorf("shard: checkpoint container truncated at key %d", i)
		}
		kl := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if kl <= 0 || len(data)-off < kl+4 {
			return 0, nil, fmt.Errorf("shard: checkpoint container truncated at key %d", i)
		}
		key := string(data[off : off+kl])
		off += kl
		bl := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if bl < 0 || len(data)-off < bl {
			return 0, nil, fmt.Errorf("shard: checkpoint container truncated at stream %q", key)
		}
		blobs[key] = data[off : off+bl]
		off += bl
	}
	return coveredSeq, blobs, nil
}
