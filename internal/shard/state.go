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
// touches its summaries: Engine.Ingest while it drains the stream and
// audits it, Engine.View around its callback, and checkpoint encoding
// around each window snapshot. Readers and drains of different streams
// therefore never wait on each other.
//
// The shard loop never takes mu. It owns the stream's logged position
// and appends each acknowledged request's values to pending under qmu, a
// leaf lock held only for the append. Whoever next holds mu drains the
// queue in WAL order (drain): the request's own Ingest before it
// returns, a View before its callback, checkpoint encoding before it
// marshals the window. So every summary, the window included, may trail
// the log until the next drain, and whoever holds mu sees whole requests
// only.
type State struct {
	mu sync.Mutex

	FW    *core.FixedWindow
	Agg   *agglom.Summary
	GK    *quantile.GK
	Sed   *vhist.StreamingEqualDepth
	Det   *drift.Detector
	Stats stream.Counter
	// Aud is the stream's shadow auditor; nil unless the engine was
	// configured with Config.AuditInterval. Like the auxiliaries it is fed
	// by drain, and Ingest runs its passes, all under mu; readers hold mu
	// too.
	Aud *quality.Auditor

	// logged is the stream's position in the log: FW.Seen() plus the
	// values still queued in pending. The shard loop names each record's
	// start position by it and moves it as it queues the record, all
	// under the shard's write lock.
	logged int64

	// qmu is a leaf lock over the three fields below: it is held only to
	// append to the queue, swap it out or move the endpoint gauge, and
	// nothing else is locked while it is held.
	qmu sync.Mutex
	// pending holds logged values not yet in FW, in WAL order. It is a
	// copy: the ingest handler's slice is pooled scratch.
	pending []float64 // guarded by qmu
	// aggCounted is Agg's share of the engine's endpoint gauge: its
	// StoredEndpoints as of the last drain.
	aggCounted int // guarded by qmu
	// discarded is set once the shard has let go of the state (deleted,
	// replaced, or swapped out after a quarantine); a drain that reaches
	// it later must leave the gauge alone.
	discarded bool // guarded by qmu
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
// stream keeps the engine the factory chose — and moves the logged
// position to the snapshot's. When the snapshot keeps the factory's
// bucket budget and epsilon, the auxiliaries st already holds fit the
// restored window and st is returned; otherwise a fresh state is built
// around the window, so the auxiliaries follow the snapshot.
func restoreWindow(st *State, blob []byte) (*State, error) {
	b, eps := st.FW.Buckets(), st.FW.Epsilon()
	if err := st.FW.UnmarshalBinary(blob); err != nil {
		return nil, err
	}
	if st.FW.Buckets() != b || math.Float64bits(st.FW.Epsilon()) != math.Float64bits(eps) {
		var err error
		if st, err = NewState(st.FW); err != nil {
			return nil, err
		}
	}
	st.logged = st.FW.Seen()
	return st, nil
}

// enqueue queues vs, the values of a record logged at the stream's
// position, for the next drain and returns the position after them.
// Call from the shard loop with the shard's write lock held, or from WAL
// replay, which owns st alone.
func (st *State) enqueue(vs []float64) int64 {
	st.qmu.Lock()
	st.pending = append(st.pending, vs...)
	st.qmu.Unlock()
	st.logged += int64(len(vs))
	return st.logged
}

// drain takes the queued values, pushes them into the window, feeds them
// to the whole-stream auxiliaries and the auditor in WAL order, and moves
// g by the change in Agg's stored endpoints. It is the only way values
// reach a stream: live ingests, View, WAL replay and container encoding
// all drain here. The window push is lazy, so maintenance waits for the
// next query's flush or, on an incremental window, for Ingest's pass. It
// never runs an audit pass; Ingest does, after its drain. Call with st.mu
// held, or with st owned alone (WAL replay).
func (st *State) drain(g *obs.Gauge) {
	st.qmu.Lock()
	vs := st.pending
	if len(vs) > 0 {
		st.pending = nil
	}
	st.qmu.Unlock()
	if len(vs) == 0 {
		return
	}
	for _, v := range vs {
		st.FW.PushLazy(v)
	}
	// One PushBatch per drain adds agglom's counters, which every stream
	// of the registry shares, once per batch instead of once per point.
	st.Agg.PushBatch(vs)
	for _, v := range vs {
		st.GK.Insert(v)
		st.Sed.Push(v)
		st.Stats.Push(v)
	}
	st.Aud.ObserveBatch(vs)
	n := st.Agg.StoredEndpoints()
	st.qmu.Lock()
	defer st.qmu.Unlock()
	// Hand the buffer back for the loop's next append, unless the loop has
	// started a new one meanwhile or a batch longer than the window grew
	// it: one outsized ingest (the daemon accepts 32 MiB bodies by
	// default) must not pin its copy to the stream for good.
	if st.pending == nil && cap(vs) <= st.FW.Capacity() {
		st.pending = vs[:0]
	}
	if !st.discarded && n != st.aggCounted {
		g.Add(float64(n - st.aggCounted))
		st.aggCounted = n
	}
}

// discard takes st's share out of g for good; the shard calls it wherever
// it lets go of st, and a drain that reaches st afterwards (an Ingest
// acknowledged just before the discard) leaves g alone. It takes only
// the leaf lock, so it never waits for a drain or a reader of st.
func (st *State) discard(g *obs.Gauge) {
	st.qmu.Lock()
	defer st.qmu.Unlock()
	g.Add(-float64(st.aggCounted))
	st.aggCounted = 0
	st.discarded = true
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

// DriftCheck runs one drift-detector observation against the window's
// current histogram, re-anchoring the detector's reference on drift, and
// reports the distance, whether this check fired and the detector's
// cumulative counts. The /drift endpoint and the audit pass both check
// through it; a caller whose check drifted accounts for the re-anchor
// with Engine.RecordDrift. Call with st.mu held (inside View).
func (st *State) DriftCheck() (quality.DriftState, error) {
	res, err := st.FW.Histogram()
	if err != nil {
		return quality.DriftState{}, err
	}
	dist, drifted, err := st.Det.Observe(res.Histogram)
	return quality.DriftState{Distance: dist, Drifted: drifted, Alarms: st.Det.Alarms(), Checks: st.Det.Checks()}, err
}

// auditStatus reads the auditor's status under the stream's lock.
func (st *State) auditStatus() quality.Status {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.Aud.Status()
}

// marshalWindow drains st, so the snapshot holds every logged value, and
// snapshots its window, all under the stream's lock.
func (st *State) marshalWindow(g *obs.Gauge) ([]byte, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.drain(g)
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

// encodeContainer serializes every stream's fixed window, each drained
// first (g takes the drains' endpoint changes). Keys are sorted so
// identical state always produces identical bytes.
func encodeContainer(coveredSeq uint64, streams map[string]*State, g *obs.Gauge) ([]byte, error) {
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
		blob, err := streams[k].marshalWindow(g)
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
