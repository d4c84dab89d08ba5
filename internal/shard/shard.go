// Package shard is the keyed multi-stream engine behind streamhistd: N
// shard loops, each owning a hash-partitioned map of per-key summary
// states, a striped write-ahead log, per-shard checkpoints, and the full
// per-shard self-healing stack (degraded mode as the WAL circuit breaker,
// an upkeep loop that checkpoints and probes, panic quarantine).
//
// Writes are message-passing: an ingest enqueues onto its shard's
// bounded mailbox and the shard loop drains it. The loop keeps only order
// and durability: it write-ahead-logs the whole drained batch with one
// group fsync, naming each record's start position by its stream's
// logged position, appends each request's values to its stream's queue,
// and replies per request. It takes no stream's lock, so a stream busy in
// a drain or a reader's callback never stalls the other streams of its
// shard. Each stream's drain is the one path by which values reach it: it
// pushes the queued values into the fixed window and then feeds the
// whole-stream auxiliaries (agglomerative histogram, GK quantiles,
// equi-depth value histogram, running stats, shadow auditor), in WAL
// order, under the stream's lock alone. Ingest drains after the loop's
// reply and before it returns, and runs a due audit pass there, so
// ingests to different streams of one shard run those updates in
// parallel. The acknowledged-durability contract is unchanged from the
// single-stream daemon: a non-degraded acknowledgment means the batch is
// durable to the configured fsync policy, and that every summary of the
// stream includes it.
//
// Reads never touch the mailbox. Locks nest in one order: ckptMu, then
// the shard lock, then a stream's lock, then the stream's queue lock;
// nothing takes the shard lock while holding a stream's lock. The shard
// lock is a RWMutex over the stream map, the streams' logged positions
// and the shard's counters: the loop's batches, checkpoint and re-anchor
// encoding, Restore, Ensure and the quarantine swap hold it for writing;
// lookups, Keys, ShardStatuses and QualitySnapshot hold it for reading.
// Each stream's State has its own mutex over its summaries, held by
// Ingest while it drains the stream and audits, by View (which drains
// too) around its callback, by QualitySnapshot while it reads the
// stream's auditor and by container encoding, which drains each stream
// before it snapshots the window. Container encoding is the only holder
// of a stream's lock that also holds the shard's. The queue lock is a
// leaf, held only to append to the queue, swap it out or move the
// endpoint gauge, so the loop, Restore and the quarantine swap can queue
// on or discard a stream without waiting for its lock. Reads, fresh
// query flushes, audits and drains of different streams on one shard run
// in parallel, and a reader sees whole requests of its stream only.
//
// Durability is striped: shard i owns DataDir/shard-<i> with its own
// WAL of keyed records (see internal/wal) and its own checkpoint
// containers, so recovery replays all shards in parallel and one
// tenant's failing stripe degrades only the shard it lives on.
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamhist/internal/faults"
	"streamhist/internal/obs"
	"streamhist/internal/quality"
	"streamhist/internal/trace"
	"streamhist/internal/wal"
)

// Sentinel errors returned by the engine's public API. The HTTP layer
// maps each onto its error-envelope code.
var (
	// ErrUnknownStream: the key names no existing stream.
	ErrUnknownStream = errors.New("shard: unknown stream")
	// ErrQuotaKeys: creating the stream would exceed Config.MaxKeys.
	ErrQuotaKeys = errors.New("shard: stream quota exceeded")
	// ErrKeyBusy: the stream already has Config.KeyInflight requests
	// in flight.
	ErrKeyBusy = errors.New("shard: too many in-flight requests for stream")
	// ErrShuttingDown: the engine is stopping; the request was not applied.
	ErrShuttingDown = errors.New("shard: shutting down")
	// ErrQuarantined: a lock-held panic left the shard's state suspect;
	// mutations are refused until restore or restart.
	ErrQuarantined = errors.New("shard: state quarantined after a panic")
	// ErrDegraded: durability is down and the policy refuses writes.
	ErrDegraded = errors.New("shard: durability degraded")
	// ErrBadSnapshot: a restore body is not a valid window snapshot.
	ErrBadSnapshot = errors.New("shard: invalid snapshot")
)

// Config configures NewEngine.
type Config struct {
	// Shards is the number of shard loops; 0 means GOMAXPROCS.
	Shards int
	// MaxKeys caps the number of live streams across the engine; 0 means
	// unlimited. Creation beyond the cap fails with ErrQuotaKeys.
	MaxKeys int
	// KeyInflight caps concurrently-waiting requests per stream key; 0
	// means unlimited. Beyond it Ingest fails fast with ErrKeyBusy.
	KeyInflight int
	// MailboxDepth bounds each shard's request mailbox; 0 means 256.
	MailboxDepth int
	// Factory builds the summary state for a newly created stream.
	Factory Factory

	// DataDir enables striped durability: shard i keeps its WAL and
	// checkpoints under DataDir/shard-<i>. Empty means memory-only.
	DataDir string
	// FS is the filesystem the durability layer writes through; nil means
	// the real one.
	FS faults.FS
	// SyncEveryAppend fsyncs each drained batch before acknowledging it.
	SyncEveryAppend bool
	// SegmentBytes is the per-shard WAL rotation threshold; 0 uses the
	// WAL default.
	SegmentBytes int64
	// CheckpointInterval is the per-shard periodic checkpoint period; 0
	// disables periodic checkpoints.
	CheckpointInterval time.Duration

	// OnPersistError selects the degraded-mode policy ("degrade" or
	// "refuse"); empty means degrade. See the server's resilience
	// contract.
	OnPersistError string
	// RestoreOnPanic rebuilds a quarantined shard from its stripe on disk
	// instead of waiting for a process restart.
	RestoreOnPanic bool
	// BreakerThreshold is the consecutive WAL append failures that put a
	// shard in degraded mode (open its breaker); 0 means 3. A degraded
	// shard's first recovery probe waits BreakerBackoff, 0 meaning 100ms,
	// and each failed probe doubles the wait up to BreakerMaxBackoff, 0
	// meaning 30s.
	BreakerThreshold  int
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration

	// AuditInterval enables the per-stream shadow auditor and accuracy
	// SLO engine, with a pass every AuditInterval ingested points per
	// stream; 0 disables auditing entirely (the drain then pays one nil
	// test per batch).
	AuditInterval int

	// Metrics receives instrumentation from every shard; per-shard series
	// are labeled shard="<i>" (bounded cardinality — never per-key).
	Metrics *obs.Registry
	// Trace receives flight-recorder events; span codes carry the shard ID.
	Trace *trace.Recorder
	// Logger receives operational records; nil means slog.Default().
	Logger *slog.Logger
	// Failpoint is a test seam invoked at named points inside critical
	// sections ("ingest.apply" in the loop, under the shard's write lock
	// only, as each logged request is queued on its stream;
	// "ingest.drain" in Ingest, under the stream's lock only, before the
	// window, the auxiliaries and the auditor absorb the batch;
	// "ingest.audit" in Ingest, under the stream's lock only, as a due
	// audit pass starts; "restore.apply" under the shard's write lock);
	// nil in production.
	Failpoint func(point string)
}

// Policy names for Config.OnPersistError, mirrored from the server.
const (
	onPersistDegrade = "degrade"
	onPersistRefuse  = "refuse"
)

func (c *Config) setDefaults() error {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.MailboxDepth <= 0 {
		c.MailboxDepth = 256
	}
	if c.FS == nil {
		c.FS = faults.OS{}
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.OnPersistError == "" {
		c.OnPersistError = onPersistDegrade
	}
	if c.OnPersistError != onPersistDegrade && c.OnPersistError != onPersistRefuse {
		return fmt.Errorf("shard: unknown OnPersistError policy %q (want %q or %q)",
			c.OnPersistError, onPersistDegrade, onPersistRefuse)
	}
	if c.Factory == nil {
		return fmt.Errorf("shard: Config.Factory is required")
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerBackoff <= 0 {
		c.BreakerBackoff = 100 * time.Millisecond
	}
	if c.BreakerMaxBackoff <= 0 {
		c.BreakerMaxBackoff = 30 * time.Second
	}
	c.BreakerMaxBackoff = max(c.BreakerMaxBackoff, c.BreakerBackoff)
	return nil
}

// Engine is the keyed shard engine. Construct with NewEngine; Close (or
// Abort, in crash tests) stops the shard loops.
type Engine struct {
	cfg      Config
	shards   []*shard
	keyCount atomic.Int64 // live streams across all shards
	cm       ckptMetrics
	rm       resilienceMetrics
	brMu     sync.Mutex // orders writes of rm.breakerState; see setBreakerGauge
	// qm is the audit instrumentation; nil when auditing is off
	// (quality.Metrics methods are nil-safe).
	qm *quality.Metrics
	// driftReanchors counts drift-detector re-anchors, whether an audit
	// pass or a /drift request ran the check (see RecordDrift).
	driftReanchors *obs.Counter
	// aggEndpoints is the daemon-wide total of stored agglomerative
	// endpoints; each State carries its share (State.drain moves it).
	aggEndpoints *obs.Gauge
	// failpoint is the test seam; read by shard loops, so swaps go
	// through an atomic instead of a plain field.
	failpoint atomic.Value // of func(string)

	closeOnce sync.Once
	closeErr  error
	abortOnce sync.Once
}

// shard is one hash partition: a loop goroutine owning a map of per-key
// states, the stripe's WAL, and the stripe's self-healing machinery.
type shard struct {
	eng *Engine
	id  int

	// mu is write-locked by every mutation of the stream map and the
	// counters below and read-locked by lookups and listings; see the
	// package doc for the holders and the lock order.
	mu       sync.RWMutex
	streams  map[string]*State // guarded by mu
	applied  int64             // guarded by mu; cumulative points applied, names checkpoints
	dirtyGen int64             // guarded by mu; bumped per mutation batch
	ckptGen  int64             // guarded by mu; dirtyGen at the last durable checkpoint
	// appendFails counts consecutive failed WAL appends; guarded by mu.
	// BreakerThreshold of them put the shard in degraded mode.
	appendFails int

	mailbox  chan *request
	stop     chan struct{}
	stopOnce sync.Once
	loopDone chan struct{}

	// Durability (nil / zero without Config.DataDir).
	dir    string
	w      *wal.WAL
	ckptMu sync.Mutex // serializes checkpointing and re-anchoring

	// Self-healing (wake and upkeepDone nil without Config.DataDir).
	// degraded is the breaker: closed when false, half-open while
	// probing, open otherwise.
	degraded    atomic.Bool
	probing     atomic.Bool
	quarantined atomic.Bool
	wake        chan struct{} // enterDegraded's wake-up of upkeep
	upkeepDone  chan struct{}
	restoreMu   sync.Mutex
	stopping    bool           // guarded by restoreMu; no self-restore starts once set
	restores    sync.WaitGroup // running self-restores, joined by wait

	infMu    sync.Mutex
	inflight map[string]int // guarded by infMu

	streamsGauge *obs.Gauge // streamhist_shard_streams{shard="i"}
}

// NewEngine validates cfg, recovers every shard's stripe from DataDir in
// parallel (when set), and starts the shard loops. The engine must be
// Closed to stop them and take final checkpoints.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg: cfg,
		cm:  newCkptMetrics(cfg.Metrics),
		rm:  newResilienceMetrics(cfg.Metrics),
		aggEndpoints: cfg.Metrics.Gauge("streamhist_agglom_endpoints",
			"Stored interval endpoints across every stream's agglomerative summary (the daemon-wide working set)."),
		driftReanchors: cfg.Metrics.Counter("streamhist_drift_reanchors_total",
			"Drift-detector alarms that re-anchored the reference histogram."),
	}
	if cfg.AuditInterval > 0 {
		e.qm = quality.NewMetrics(cfg.Metrics)
	}
	if cfg.Failpoint != nil {
		e.failpoint.Store(cfg.Failpoint)
	}
	if cfg.DataDir != "" {
		if err := e.checkMeta(); err != nil {
			return nil, err
		}
	}
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.shards[i] = e.newShard(i)
	}
	if cfg.DataDir != "" {
		// Parallel stripe recovery: each shard opens its WAL, loads its
		// checkpoint container and replays its tail concurrently.
		errs := make([]error, len(e.shards))
		var wg sync.WaitGroup
		for i, sh := range e.shards {
			wg.Add(1)
			go func(i int, sh *shard) {
				defer wg.Done()
				errs[i] = sh.recover()
			}(i, sh)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		var total int64
		for _, sh := range e.shards {
			//lint:ignore mutex-discipline recovery is complete and the shard loops have not started; the engine is still private to NewEngine
			total += int64(len(sh.streams))
		}
		e.keyCount.Store(total)
	}
	if cfg.DataDir != "" {
		e.rm.breakerState.Set(float64(brClosed))
	}
	for _, sh := range e.shards {
		go sh.loop()
		if cfg.DataDir != "" {
			sh.breakerGauge().Set(float64(brClosed))
			go sh.upkeep()
		}
	}
	return e, nil
}

func (e *Engine) newShard(id int) *shard {
	sh := &shard{
		eng:      e,
		id:       id,
		streams:  make(map[string]*State),
		mailbox:  make(chan *request, e.cfg.MailboxDepth),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
		inflight: make(map[string]int),
	}
	if e.cfg.DataDir != "" {
		sh.dir = shardDir(e.cfg.DataDir, id)
		sh.wake = make(chan struct{}, 1)
		sh.upkeepDone = make(chan struct{})
	}
	sh.streamsGauge = e.cfg.Metrics.LabeledGauge("streamhist_shard_streams",
		shardLabel(id), "Live streams per shard.")
	return sh
}

// ShardFor returns the shard index key routes to: FNV-1a over the key,
// modulo the shard count. It is a pure function of (key, Shards), so
// routing is stable across restarts — the property the striped WAL
// layout depends on.
func (e *Engine) ShardFor(key string) int {
	return shardIndex(key, len(e.shards))
}

func shardIndex(key string, shards int) int {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum64() % uint64(shards))
}

func (e *Engine) shardFor(key string) *shard { return e.shards[e.ShardFor(key)] }

// Shards returns the configured shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// KeyCount returns the number of live streams across all shards.
func (e *Engine) KeyCount() int64 { return e.keyCount.Load() }

// failAt invokes the test failpoint seam, if installed.
func (e *Engine) failAt(point string) {
	if fn, ok := e.failpoint.Load().(func(string)); ok && fn != nil {
		fn(point)
	}
}

// SetFailpoint installs (or clears, with nil) the test failpoint seam.
func (e *Engine) SetFailpoint(fn func(point string)) {
	if fn == nil {
		fn = func(string) {}
	}
	e.failpoint.Store(fn)
}

// Ingest appends values to key's stream, creating it on first use, and
// blocks until the shard loop has made the batch durable (or degraded-
// acknowledged it) and queued it on the stream, and the stream's drain
// has pushed it into the window and every auxiliary. It returns the
// stream's position after the batch and whether the acknowledgment is
// degraded (memory-only). The parent span, when tracing, receives the
// WAL append and fsync events.
//
// The drain runs here, on the caller's goroutine, under the stream's
// lock only, followed by one maintenance pass on an incremental window
// and a due audit pass: ingests to different streams of one shard run
// their updates and audits in parallel, and the shard's write lock
// covers only the WAL append and the queue append.
func (e *Engine) Ingest(key string, parent trace.SpanID, values []float64) (seen int64, degraded bool, err error) {
	sh := e.shardFor(key)
	if sh.quarantined.Load() {
		return 0, false, ErrQuarantined
	}
	if limit := e.cfg.KeyInflight; limit > 0 {
		if !sh.acquireKey(key, limit) {
			return 0, false, ErrKeyBusy
		}
		defer sh.releaseKey(key)
	}
	resp := sh.submit(&request{key: key, values: values, parent: parent})
	if resp.err != nil {
		return 0, false, resp.err
	}
	if err := sh.drain(key, resp.st); err != nil {
		return 0, false, err
	}
	return resp.seen, resp.degraded, nil
}

// drain catches key's stream up with the log off the shard loop, runs
// one maintenance pass if its window is incremental, then runs the audit
// pass if one is due: it holds st's lock and not the shard's. The queued
// values it feeds include this caller's batch and any earlier one not
// yet drained. A panic while feeding them, maintaining or auditing
// quarantines the shard, and the ingest fails with ErrQuarantined.
func (sh *shard) drain(key string, st *State) (err error) {
	defer func() {
		// Only a *LockedPanic can arrive: guardUnlock wraps whatever
		// panicked under the lock, after quarantining and logging it.
		if recover() != nil {
			err = ErrQuarantined
		}
	}()
	st.mu.Lock()
	defer st.guardUnlock(sh)
	sh.eng.failAt("ingest.drain")
	st.drain(sh.eng.aggEndpoints)
	if st.FW.IncrementalRebuild() {
		// Incremental cover repair makes a maintenance pass amortized
		// sub-millisecond, so maintain eagerly, one pass per ingest, and
		// keep read latency flat. Exact windows stay lazy: maintenance
		// defers to the next query's flush rather than paying a full
		// rebuild per ingest.
		st.FW.ApproxError()
	}
	if st.Aud.Due() {
		sh.runAudit(key, st)
	}
	return nil
}

// Delete removes key's stream, appending a tombstone to the stripe's WAL
// so the deletion survives a crash. Deleting an unknown stream fails
// with ErrUnknownStream.
func (e *Engine) Delete(key string, parent trace.SpanID) error {
	sh := e.shardFor(key)
	if sh.quarantined.Load() {
		return ErrQuarantined
	}
	resp := sh.submit(&request{key: key, del: true, parent: parent})
	return resp.err
}

// submit enqueues req and waits for the loop's reply. If the shard shuts
// down mid-flight the request fails with ErrShuttingDown unless its
// reply already landed.
func (sh *shard) submit(req *request) response {
	req.done = make(chan response, 1)
	select {
	case sh.mailbox <- req:
	case <-sh.stop:
		return response{err: ErrShuttingDown}
	}
	select {
	case resp := <-req.done:
		return resp
	case <-sh.loopDone:
		// The loop exited; it drained the mailbox with shutdown errors
		// first, so a reply is either already buffered or never coming.
		select {
		case resp := <-req.done:
			return resp
		default:
			return response{err: ErrShuttingDown}
		}
	}
}

// acquireKey reserves one of key's in-flight slots; false means the
// per-key quota is exhausted.
func (sh *shard) acquireKey(key string, limit int) bool {
	sh.infMu.Lock()
	defer sh.infMu.Unlock()
	if sh.inflight[key] >= limit {
		return false
	}
	sh.inflight[key]++
	return true
}

func (sh *shard) releaseKey(key string) {
	sh.infMu.Lock()
	defer sh.infMu.Unlock()
	if n := sh.inflight[key]; n <= 1 {
		delete(sh.inflight, key)
	} else {
		sh.inflight[key] = n - 1
	}
}

// View runs fn on key's state under that stream's own lock; the shard
// lock is held for reading only while the stream is looked up. Values the
// loop has queued but no one has drained yet are drained first, into the
// window, the auxiliaries and the auditor, so fn sees whole ingest
// requests of the stream in every summary; a due audit pass waits for
// the stream's next ingest. Reads and writes of other streams on the
// shard run alongside it. fn may mutate the state's caches (a query
// flush does), must not call back into the engine, and must not retain
// the state past its return. A panic inside fn releases the stream lock,
// quarantines the shard (fn may have left the state half mutated) and
// re-panics as *LockedPanic.
func (e *Engine) View(key string, fn func(*State) error) error {
	sh := e.shardFor(key)
	st := sh.lookup(key)
	if st == nil {
		return ErrUnknownStream
	}
	st.mu.Lock()
	defer st.guardUnlock(sh)
	st.drain(e.aggEndpoints)
	return fn(st)
}

// lookup returns key's state, or nil, under the shard's read lock.
func (sh *shard) lookup(key string) *State {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.streams[key]
}

// Ensure creates key's stream if it does not exist yet (the reserved
// "default" stream is ensured at server startup). Creation here is
// memory-only: an empty stream becomes durable with its first ingested
// batch.
func (e *Engine) Ensure(key string) error {
	sh := e.shardFor(key)
	sh.mu.Lock()
	defer sh.guardUnlock()
	if _, ok := sh.streams[key]; ok {
		return nil
	}
	st, err := sh.createState(key)
	if err != nil {
		return err
	}
	sh.installState(key, st)
	return nil
}

// createState runs the factory under the engine's key quota and
// normalizes instrumentation. Call with sh.mu held; on success the
// caller must either installState the result or releaseKeySlot.
func (sh *shard) createState(key string) (*State, error) {
	if err := sh.reserveKeySlot(); err != nil {
		return nil, err
	}
	st, err := sh.eng.cfg.Factory(key)
	if err != nil {
		sh.eng.keyCount.Add(-1)
		return nil, fmt.Errorf("shard: stream factory: %w", err)
	}
	st.attach(sh.eng.cfg.Metrics, sh.eng.cfg.Trace)
	sh.wireAudit(key, st)
	return st, nil
}

// installState publishes a created state into the shard map, replacing
// (and discarding) any state key already had; the new state's endpoints
// count from its first drain. Call with sh.mu held.
//
//lint:ignore mutex-discipline runs under the caller's sh.mu (create paths in the loop, Ensure, Restore)
func (sh *shard) installState(key string, st *State) {
	if old, ok := sh.streams[key]; ok {
		old.discard(sh.eng.aggEndpoints)
	}
	sh.streams[key] = st
	sh.streamsGauge.Set(float64(len(sh.streams)))
}

// dropState removes a state from the shard map. Call with sh.mu held.
//
//lint:ignore mutex-discipline runs under the caller's sh.mu (delete path in the loop)
func (sh *shard) dropState(key string) {
	if st, ok := sh.streams[key]; ok {
		st.discard(sh.eng.aggEndpoints)
	}
	delete(sh.streams, key)
	sh.eng.keyCount.Add(-1)
	sh.streamsGauge.Set(float64(len(sh.streams)))
}

// reserveKeySlot counts one more live stream against Config.MaxKeys, or
// counts nothing and fails with ErrQuotaKeys when the engine is at the
// cap.
func (sh *shard) reserveKeySlot() error {
	n := sh.eng.keyCount.Add(1)
	if max := sh.eng.cfg.MaxKeys; max > 0 && n > int64(max) {
		sh.eng.keyCount.Add(-1)
		return ErrQuotaKeys
	}
	return nil
}

// releaseKeySlot undoes reserveKeySlot when the created state is
// abandoned (its batch failed before installation).
func (sh *shard) releaseKeySlot() { sh.eng.keyCount.Add(-1) }

// Keys returns every live stream key, sorted, as of a moment between
// the call and the return (each shard is snapshotted under its read
// lock; there is no cross-shard barrier).
func (e *Engine) Keys() []string {
	var keys []string
	for _, sh := range e.shards {
		sh.mu.RLock()
		for k := range sh.streams {
			keys = append(keys, k)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(keys)
	return keys
}

// Seen returns key's stream position, or 0 for an unknown stream.
func (e *Engine) Seen(key string) int64 {
	var seen int64
	_ = e.View(key, func(st *State) error {
		seen = st.FW.Seen()
		return nil
	})
	return seen
}

// Restore replaces key's stream with the window snapshot blob (an
// uploaded snapshot), creating the stream if needed. The snapshot is
// decoded into the window the factory builds for key, so the stream
// keeps the engine the factory chose; a blob that does not decode fails
// with ErrBadSnapshot. The auxiliaries restart empty, derived from the
// restored window's parameters. On a durable engine the new stream is
// installed only once a checkpoint holding it is durable, and the
// stripe's WAL is reset before Restore returns, so the acknowledgment
// implies durability; a failed save changes nothing.
func (e *Engine) Restore(key string, blob []byte) (seen int64, length int, err error) {
	sh := e.shardFor(key)
	if sh.quarantined.Load() {
		return 0, 0, ErrQuarantined
	}
	st, err := e.cfg.Factory(key)
	if err != nil {
		return 0, 0, fmt.Errorf("shard: stream factory: %w", err)
	}
	if st, err = restoreWindow(st, blob); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	st.attach(e.cfg.Metrics, e.cfg.Trace)
	sh.wireAudit(key, st)
	seen, length = st.FW.Seen(), st.FW.Len()
	// Lock order matches checkpointing: ckptMu then mu. The shard's write
	// lock is held across the container save, the swap and the WAL reset,
	// so no concurrent batch can land between the checkpoint and the reset
	// and be destroyed unacknowledged.
	sh.ckptMu.Lock()
	defer sh.ckptMu.Unlock()
	sh.mu.Lock()
	defer sh.guardUnlock()
	_, exists := sh.streams[key]
	if !exists {
		if err := sh.reserveKeySlot(); err != nil {
			return 0, 0, err
		}
	}
	e.failAt("restore.apply")
	if sh.w == nil {
		sh.installState(key, st)
		return seen, length, nil
	}
	if err := sh.reanchor(key, st); err != nil {
		if !exists && sh.streams[key] != st {
			// The save failed and installed nothing: free the slot.
			sh.releaseKeySlot()
		}
		return 0, 0, fmt.Errorf("shard: checkpointing restored state: %w", err)
	}
	return seen, length, nil
}

// Degraded reports whether any shard is in degraded (memory-only) mode.
func (e *Engine) Degraded() bool {
	for _, sh := range e.shards {
		if sh.degraded.Load() {
			return true
		}
	}
	return false
}

// QuarantinedFor reports whether key's shard is quarantined — other
// shards keep serving; quarantine is a stripe-local condition.
func (e *Engine) QuarantinedFor(key string) bool {
	return e.shardFor(key).quarantined.Load()
}

// Quarantined reports whether any shard's state is quarantined.
func (e *Engine) Quarantined() bool {
	for _, sh := range e.shards {
		if sh.quarantined.Load() {
			return true
		}
	}
	return false
}

// CheckpointAll checkpoints every dirty shard (clean shards are
// skipped), returning the first error. Safe to call concurrently with
// ingests.
func (e *Engine) CheckpointAll() error {
	var first error
	for _, sh := range e.shards {
		if err := sh.checkpoint(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops every shard: loops drain, a running panic self-restore
// finishes, a final checkpoint is taken per dirty, non-quarantined
// shard, and the striped WAL is sealed. Safe to call more than once.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		var wg sync.WaitGroup
		errs := make([]error, len(e.shards))
		for i, sh := range e.shards {
			wg.Add(1)
			go func(i int, sh *shard) {
				defer wg.Done()
				errs[i] = sh.close()
			}(i, sh)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				e.closeErr = err
				break
			}
		}
	})
	return e.closeErr
}

// Abort stops every shard's goroutines WITHOUT the final checkpoint or
// WAL seal — the crash simulation used by the chaos soak: what is on
// disk afterward is exactly what a real crash would leave.
func (e *Engine) Abort() {
	e.abortOnce.Do(func() {
		for _, sh := range e.shards {
			sh.stopOnce.Do(func() { close(sh.stop) })
		}
		for _, sh := range e.shards {
			sh.wait()
		}
	})
}

// wait returns once the shard's goroutines have exited: the loop, the
// upkeep loop and a running self-restore. No self-restore starts after
// it. Call after closing sh.stop.
func (sh *shard) wait() {
	<-sh.loopDone
	if sh.upkeepDone != nil {
		<-sh.upkeepDone
	}
	sh.restoreMu.Lock()
	sh.stopping = true
	sh.restoreMu.Unlock()
	sh.restores.Wait()
}

func (sh *shard) close() error {
	sh.stopOnce.Do(func() { close(sh.stop) })
	sh.wait()
	var err error
	if sh.dir != "" {
		if sh.quarantined.Load() {
			// Don't persist suspect state over the last good checkpoint.
			sh.logger().Warn("closing while quarantined; skipping final checkpoint", "shard", sh.id)
		} else if cerr := sh.checkpoint(); cerr != nil {
			err = fmt.Errorf("shard %d: final checkpoint: %w", sh.id, cerr)
		}
	}
	if sh.w != nil {
		if werr := sh.w.Close(); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// Convenience accessors so shard methods read like the server's old
// single-instance code.
func (sh *shard) logger() *slog.Logger    { return sh.eng.cfg.Logger }
func (sh *shard) tracer() *trace.Recorder { return sh.eng.cfg.Trace }
func (sh *shard) cm() *ckptMetrics        { return &sh.eng.cm }
func (sh *shard) rm() *resilienceMetrics  { return &sh.eng.rm }
func (sh *shard) breakerGauge() *obs.Gauge {
	return sh.eng.cfg.Metrics.LabeledGauge("streamhist_shard_breaker_state",
		shardLabel(sh.id), "Per-shard WAL circuit breaker state (0 closed, 1 open, 2 half_open).")
}

func shardLabel(id int) string { return fmt.Sprintf(`shard="%d"`, id) }
