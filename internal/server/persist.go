package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"streamhist/internal/core"
	"streamhist/internal/faults"
	"streamhist/internal/obs"
	"streamhist/internal/shard"
	"streamhist/internal/trace"
)

// Options configures Open.
type Options struct {
	// Window, Buckets, Eps, Delta configure each stream's fixed-window
	// maintainer (see core.NewWithDelta). When a checkpoint is recovered a
	// stream's recorded configuration supersedes these.
	Window  int
	Buckets int
	Eps     float64
	Delta   float64

	// Shards is the number of shard loops the keyed engine runs; stream
	// keys are hash-partitioned across them and each shard owns its own
	// WAL stripe and checkpoints. 0 means GOMAXPROCS. A durable data dir
	// is laid out for a fixed shard count; reopening with a different one
	// is refused.
	Shards int
	// MaxKeys caps live streams across all shards; creating one more
	// answers 429/quota_exceeded. 0 means unlimited.
	MaxKeys int
	// KeyInflight bounds concurrently-admitted requests per stream key
	// (per-tenant overload isolation); 0 means unlimited. The server-wide
	// MaxInflight still applies.
	KeyInflight int
	// Factory builds the per-stream summary set for new keys; nil derives
	// one from Window/Buckets/Eps/Delta. Open builds the default stream
	// with it, so a factory that cannot build a stream fails Open.
	Factory shard.Factory
	// Incremental enables incremental cover repair on every stream the
	// default factory creates. Such a stream maintains eagerly: each
	// ingest runs one amortized repair pass after its drain, under the
	// stream's lock, so queries find the cover fresh. Exact streams (the
	// default) defer maintenance to the next query's flush. Ignored when
	// Factory is set (configure the maintainer there instead).
	Incremental bool

	// AuditInterval > 0 enables the per-stream shadow auditor and
	// accuracy SLO engine (internal/quality): each stream's drain feeds an
	// auditor that keeps a seeded reservoir of the stream's values and
	// every AuditInterval points replays a range/quantile/selectivity
	// panel against the approximate summaries, with the stream's window as
	// range truth, and tracks P[rel_err <= eps] >= 0.9 over the last 256
	// panel queries. Serves GET /v1/streams/{key}/slo and GET
	// /debug/quality. 0 disables auditing.
	AuditInterval int

	// MaxBody caps an ingest or restore request body; 0 means 32 MiB.
	MaxBody int64
	// MaxInflight bounds concurrently-admitted ingest requests; beyond it
	// the server answers 429 with Retry-After. 0 means 64.
	MaxInflight int
	// RequestTimeout bounds each request end to end via http.TimeoutHandler;
	// 0 disables.
	RequestTimeout time.Duration

	// DataDir enables durability: per-shard write-ahead logs plus periodic
	// checkpoints live here, and Open recovers from them (shards in
	// parallel). Empty means the server is memory-only and loses all
	// streams on exit.
	DataDir string
	// CheckpointInterval is the period of each shard's automatic
	// checkpoints; 0 disables them (checkpoints then happen only at Close
	// and via explicit Checkpoint calls, and the WALs grow until one
	// happens).
	CheckpointInterval time.Duration
	// SyncEveryAppend fsyncs the WAL on every acknowledged ingest. When
	// false, a crash loses at most the un-fsynced suffix of acknowledged
	// batches (the OS flushes on its own schedule).
	SyncEveryAppend bool
	// SegmentBytes is the WAL segment rotation threshold; 0 uses the WAL
	// default.
	SegmentBytes int64
	// FS is the filesystem the durability layer writes through; nil means
	// the real one. Tests inject faults here.
	FS faults.FS

	// OnPersistError selects the degraded-mode policy once a shard's WAL
	// appends open its circuit breaker: OnPersistDegrade (the default)
	// accepts ingests memory-only with "degraded":true in the response;
	// OnPersistRefuse fails them with 503/degraded until the log
	// recovers. Degradation is per shard — healthy shards keep full
	// durability. See internal/shard for the full contract.
	OnPersistError string
	// RestoreOnPanic, with DataDir set, rebuilds a shard's in-memory state
	// from its last checkpoint plus WAL replay after a panic quarantined
	// it, instead of waiting for an orchestrator restart.
	RestoreOnPanic bool
	// BreakerThreshold is the consecutive WAL-append failures that put a
	// shard in degraded mode, opening its breaker; 0 means 3.
	BreakerThreshold int
	// BreakerBackoff is the first recovery-probe interval; doubles per
	// failed probe up to BreakerMaxBackoff. Zeros mean 100ms and 30s.
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration

	// Metrics, when non-nil, receives instrumentation from every layer the
	// server drives (HTTP, fixed-window maintenance, agglomerative summary,
	// WAL, checkpoints) and enables GET /metrics serving the registry in
	// Prometheus text format. Labels stay bounded per shard, never per
	// stream key. Nil disables all instrumentation at zero cost.
	Metrics *obs.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (outside the
	// request timeout, so long profile captures survive).
	EnablePprof bool
	// Trace, when non-nil, attaches the flight recorder: every layer a
	// request touches records span events into its ring (see
	// internal/trace) with shard attribution, and GET
	// /debug/trace/{events,chrome} serve the ring. Nil disables tracing
	// at zero cost.
	Trace *trace.Recorder

	// Logger receives operational records (recovery progress, checkpoint
	// failures) and, at debug level, per-request access records with
	// trace/span IDs when Trace is set. Nil means slog.Default().
	Logger *slog.Logger
}

func (o *Options) setDefaults() {
	if o.MaxBody == 0 {
		o.MaxBody = 32 << 20
	}
	if o.MaxInflight == 0 {
		o.MaxInflight = 64
	}
	if o.FS == nil {
		o.FS = faults.OS{}
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	if o.OnPersistError == "" {
		o.OnPersistError = OnPersistDegrade
	}
}

// defaultFactory derives the per-stream summary set from the configured
// window parameters; every new stream gets an identical fresh set.
func defaultFactory(o Options) shard.Factory {
	return func(string) (*shard.State, error) {
		fw, err := core.NewWithDelta(o.Window, o.Buckets, o.Eps, o.Delta)
		if err != nil {
			return nil, err
		}
		fw.SetIncrementalRebuild(o.Incremental)
		return shard.NewState(fw)
	}
}

// Open constructs a server and, when opts.DataDir is set, recovers its
// streams from disk: each shard loads its newest valid checkpoint
// container, replays its WAL tail past it, verifies the window
// invariants, and only then does the server report ready. The returned
// server must be Closed to take the final checkpoints.
func Open(opts Options) (*Server, error) {
	opts.setDefaults()
	if opts.OnPersistError != OnPersistDegrade && opts.OnPersistError != OnPersistRefuse {
		return nil, fmt.Errorf("server: unknown OnPersistError policy %q (want %q or %q)",
			opts.OnPersistError, OnPersistDegrade, OnPersistRefuse)
	}
	s := &Server{
		mux:      http.NewServeMux(),
		maxBody:  opts.MaxBody,
		inflight: make(chan struct{}, opts.MaxInflight),
		opts:     opts,
		fs:       opts.FS,
		om:       newHTTPMetrics(opts.Metrics),
		panics:   opts.Metrics.Counter("streamhist_handler_panics_total", "Handler panics contained by the recovery middleware."),
	}
	s.state.Store(stateStarting)
	s.tr = opts.Trace
	s.logger = opts.Logger
	s.logDebug = s.tr != nil && s.logger.Enabled(context.Background(), slog.LevelDebug)
	if s.tr != nil {
		s.tr.SetRegistry(opts.Metrics)
		s.tr.SetCodeNamer(tracePathName)
	}
	factory := opts.Factory
	if factory == nil {
		factory = defaultFactory(opts)
		// Validate the window parameters up front so a bad configuration
		// fails Open, not the first ingest.
		if _, err := factory(""); err != nil {
			return nil, err
		}
	}
	eng, err := shard.NewEngine(shard.Config{
		Shards:             opts.Shards,
		MaxKeys:            opts.MaxKeys,
		KeyInflight:        opts.KeyInflight,
		Factory:            factory,
		AuditInterval:      opts.AuditInterval,
		DataDir:            opts.DataDir,
		FS:                 opts.FS,
		SyncEveryAppend:    opts.SyncEveryAppend,
		SegmentBytes:       opts.SegmentBytes,
		CheckpointInterval: opts.CheckpointInterval,
		OnPersistError:     opts.OnPersistError,
		RestoreOnPanic:     opts.RestoreOnPanic,
		BreakerThreshold:   opts.BreakerThreshold,
		BreakerBackoff:     opts.BreakerBackoff,
		BreakerMaxBackoff:  opts.BreakerMaxBackoff,
		Metrics:            opts.Metrics,
		Trace:              opts.Trace,
		Logger:             opts.Logger,
	})
	if err != nil {
		return nil, err
	}
	s.eng = eng
	// The reserved default stream always exists, so single-stream clients
	// and the window gauges always have a target. Creation is memory-only;
	// an untouched default stream costs nothing on disk.
	if err := eng.Ensure(DefaultStream); err != nil {
		_ = eng.Close()
		return nil, err
	}
	s.registerGaugeFuncs(opts.Metrics)
	s.routes()
	s.state.Store(stateReady)
	return s, nil
}

// Checkpoint atomically persists every dirty shard's state and then
// drops WAL segments the checkpoints cover. Safe to call concurrently
// with ingests; concurrent Checkpoint calls are serialized per shard.
func (s *Server) Checkpoint() error {
	if s.opts.DataDir == "" {
		return fmt.Errorf("server: no data dir configured")
	}
	return s.eng.CheckpointAll()
}

// Seen returns the number of points ingested into the default stream
// (for tests and the daemon's shutdown log line).
func (s *Server) Seen() int64 {
	return s.eng.Seen(DefaultStream)
}

// Close drains the server: readiness flips to 503, new writes are
// refused, the shard loops stop, final checkpoints are taken and the
// WAL stripes are sealed. Safe to call more than once.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.state.Store(stateDraining)
		s.closeErr = s.eng.Close()
	})
	return s.closeErr
}
