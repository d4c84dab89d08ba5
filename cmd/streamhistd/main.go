// Command streamhistd serves keyed fixed-window stream summaries over
// HTTP: every stream key owns an independent summary set, hash-
// partitioned across -shards shard loops.
//
//	streamhistd -addr :8080 -window 4096 -buckets 16 -eps 0.1 \
//	    -shards 4 -max-keys 10000 -key-inflight 8 \
//	    -data-dir /var/lib/streamhistd -checkpoint-interval 30s -fsync
//
// Then, per stream (here "sensor-9"):
//
//	curl -X POST --data-binary @values.txt localhost:8080/v1/streams/sensor-9/ingest
//	curl localhost:8080/v1/streams/sensor-9/histogram
//	curl 'localhost:8080/v1/streams/sensor-9/query?lo=100&hi=900'
//	curl 'localhost:8080/v1/streams/sensor-9/quantile?phi=0.99'
//	curl 'localhost:8080/v1/streams/sensor-9/selectivity?lo=200&hi=400'
//	curl localhost:8080/v1/streams/sensor-9/stats
//	curl -o window.snap localhost:8080/v1/streams/sensor-9/snapshot
//	curl -X POST --data-binary @window.snap localhost:8080/v1/streams/sensor-9/restore
//	curl 'localhost:8080/v1/streams?limit=100'
//	curl -X DELETE localhost:8080/v1/streams/sensor-9
//
// The reserved "default" stream always exists, so a single-stream
// client needs no setup:
//
//	curl -X POST --data-binary @values.txt localhost:8080/v1/streams/default/ingest
//	curl localhost:8080/v1/streams/default/histogram
//
// Unversioned paths such as /ingest answer 404 not_found. Operations
// endpoints:
//
//	curl localhost:8080/healthz
//	curl localhost:8080/readyz
//	curl localhost:8080/metrics          # with -metrics (default on)
//	go tool pprof localhost:8080/debug/pprof/profile  # with -pprof
//	curl localhost:8080/debug/trace/events            # with -trace-buffer
//	curl -o trace.json localhost:8080/debug/trace/chrome  # Perfetto-loadable
//
// Observability: with -metrics (the default) every layer is instrumented
// into one registry — fixed-window maintenance, the agglomerative
// summary, WAL fsyncs, checkpoints, and per-endpoint HTTP counters and
// latency quantiles — served at GET /metrics in Prometheus text format.
// The latency quantiles are computed by the library's own Greenwald-
// Khanna summaries. -pprof additionally mounts net/http/pprof under
// /debug/pprof/ (off by default: profiles expose more than metrics do).
//
// Accuracy SLOs: -audit attaches a shadow auditor to every stream. It
// keeps an exact bounded-memory view of the recent window (a ring for
// range sums, a reservoir for quantiles and selectivities) and every
// -audit-interval points replays a query panel against both the
// approximate summaries and the exact shadow, publishing the measured
// relative error, eps-headroom and drift state as gauges, and tracking
// the SLO "P[rel_err <= eps] >= -slo-target over the last -slo-window
// panel queries". Breach episodes emit a trace instant and an anomaly
// capture. Per-stream status is served at GET /v1/streams/{key}/slo
// and fleet-wide at GET /debug/quality.
//
// Tracing: -trace-buffer N keeps the last N span events (HTTP requests,
// ingests, rebuilds with per-level detail, WAL appends and fsyncs,
// checkpoints) in a fixed-size in-memory flight recorder, served as JSON
// at /debug/trace/events and in Chrome trace-event format at
// /debug/trace/chrome. With -trace-slow-threshold D, any rebuild taking
// at least D snapshots the ring and the engine's counters to a JSON file
// under -trace-dir (default <data-dir>/captures) for post-mortem.
//
// Logging goes through log/slog; -log-format json emits structured
// records (text is the default). With tracing on and -log-level debug,
// each request is logged with its span ID and traceparent.
//
// Durability: with -data-dir set, every acknowledged ingest batch is
// appended to a write-ahead log before it is applied, and the window
// state is checkpointed atomically every -checkpoint-interval and on
// shutdown. After a crash the daemon recovers by loading the newest
// checkpoint and replaying the log tail; with -fsync the guarantee is
// that no acknowledged batch is lost, without it at most the un-fsynced
// suffix of acknowledgements is. The whole-stream summaries (/quantile,
// /selectivity, /stats) restart from the replayed tail only — the window
// itself is recovered exactly.
//
// Overload: at most -max-inflight ingests are admitted concurrently;
// beyond that the daemon answers 429 with Retry-After rather than
// queueing unboundedly. -key-inflight bounds admissions per stream key
// (tenant isolation) and -max-keys caps live streams (429 quota_exceeded
// beyond). Request bodies are capped at -maxbody bytes (413 beyond), and
// every request is bounded by -request-timeout.
//
// Shutdown: SIGINT/SIGTERM flips /readyz to 503, drains in-flight
// requests (up to -shutdown-timeout), takes a final checkpoint and seals
// the log.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"streamhist/internal/obs"
	"streamhist/internal/server"
	"streamhist/internal/trace"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		window    = flag.Int("window", 4096, "sliding window capacity")
		buckets   = flag.Int("buckets", 16, "histogram bucket budget")
		eps       = flag.Float64("eps", 0.1, "approximation precision")
		delta     = flag.Float64("delta", 0, "per-level growth factor (default: eps)")
		incr      = flag.Bool("incremental", false, "incremental cover repair: amortized sub-millisecond pushes inside a (1+delta)-staleness envelope instead of bit-exact per-point rebuilds")
		shards    = flag.Int("shards", 0, "shard loops for the keyed engine; streams are hash-partitioned across them (0: GOMAXPROCS)")
		maxKeys   = flag.Int("max-keys", 0, "maximum live streams across all shards before 429/quota_exceeded (0: unlimited)")
		keyInfl   = flag.Int("key-inflight", 0, "maximum concurrently admitted requests per stream key (0: unlimited)")
		dataDir   = flag.String("data-dir", "", "directory for the write-ahead log and checkpoints (empty: in-memory only)")
		ckptIvl   = flag.Duration("checkpoint-interval", 30*time.Second, "period of automatic checkpoints (0: only at shutdown)")
		onPersist = flag.String("on-persist-error", "degrade", "when the WAL breaker trips: degrade (accept ingests memory-only) or refuse (503 until recovery)")
		panicRest = flag.Bool("panic-restore", false, "after a panic under the state lock, restore from the last checkpoint instead of staying quarantined")
		brThresh  = flag.Int("breaker-threshold", 0, "consecutive WAL failures that trip the breaker (0: default 3)")
		brBackoff = flag.Duration("breaker-backoff", 0, "first recovery-probe backoff after the breaker opens (0: default 100ms)")
		brMaxBack = flag.Duration("breaker-max-backoff", 0, "cap on the doubling recovery-probe backoff (0: default 30s)")
		fsync     = flag.Bool("fsync", true, "fsync the write-ahead log on every acknowledged ingest")
		inflight  = flag.Int("max-inflight", 64, "maximum concurrently admitted /ingest requests before answering 429")
		maxBody   = flag.Int64("maxbody", 32<<20, "maximum request body bytes for /ingest and /restore (413 beyond)")
		reqTmo    = flag.Duration("request-timeout", 30*time.Second, "per-request handling deadline (0: none)")
		shutTmo   = flag.Duration("shutdown-timeout", 10*time.Second, "deadline for draining in-flight requests at shutdown")
		metrics   = flag.Bool("metrics", true, "instrument all layers and serve GET /metrics in Prometheus text format")
		audit     = flag.Bool("audit", false, "run a shadow accuracy auditor per stream: replay range/quantile/selectivity panels against an exact bounded-memory view and track the eps-contract SLO")
		auditIvl  = flag.Int("audit-interval", 0, "points between audit passes per stream (0: default 1024; implies -audit)")
		auditShad = flag.Int("audit-shadow", 0, "exact shadow ring size for range-query ground truth (0: default 2048)")
		auditRes  = flag.Int("audit-reservoir", 0, "reservoir sample size for quantile/selectivity ground truth (0: default 512)")
		auditSeed = flag.Int64("audit-seed", 0, "base seed XORed into each stream key's hash to seed its audit panel rng (0 means 1, so 0 and 1 audit identically)")
		sloTarget = flag.Float64("slo-target", 0, "accuracy SLO: required fraction of panel queries within eps over the rolling window (0: default 0.9; implies -audit)")
		sloWindow = flag.Int("slo-window", 0, "rolling SLO window in panel-query outcomes (0: default 256)")
		pprof     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		traceBuf  = flag.Int("trace-buffer", 0, "flight-recorder ring capacity in events (0: tracing disabled)")
		traceSlow = flag.Duration("trace-slow-threshold", 0, "rebuilds at least this slow snapshot the trace ring to disk (0: off)")
		traceDir  = flag.String("trace-dir", "", "directory for slow-rebuild captures (default: <data-dir>/captures)")
		traceKeep = flag.Int("trace-keep", 8, "maximum slow-rebuild capture files kept on disk")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	)
	flag.Parse()
	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamhistd:", err)
		os.Exit(2)
	}
	if *delta == 0 {
		*delta = *eps
	}
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	var tr *trace.Recorder
	if *traceBuf > 0 {
		tr, err = trace.New(*traceBuf)
		if err != nil {
			fatal(logger, "trace buffer", "err", err)
		}
		if *traceSlow > 0 {
			dir := *traceDir
			if dir == "" && *dataDir != "" {
				dir = filepath.Join(*dataDir, "captures")
			}
			if dir == "" {
				fatal(logger, "-trace-slow-threshold needs -trace-dir or -data-dir")
			}
			tr.SetSlowCapture(dir, *traceSlow, *traceKeep)
			logger.Info("slow-rebuild capture armed",
				"threshold", *traceSlow, "dir", dir, "keep", *traceKeep)
		}
	} else if *traceSlow > 0 {
		fatal(logger, "-trace-slow-threshold needs -trace-buffer > 0")
	}
	s, err := server.Open(server.Options{
		Window:             *window,
		Buckets:            *buckets,
		Eps:                *eps,
		Delta:              *delta,
		Incremental:        *incr,
		Shards:             *shards,
		MaxKeys:            *maxKeys,
		KeyInflight:        *keyInfl,
		MaxBody:            *maxBody,
		MaxInflight:        *inflight,
		RequestTimeout:     *reqTmo,
		DataDir:            *dataDir,
		CheckpointInterval: *ckptIvl,
		SyncEveryAppend:    *fsync,
		OnPersistError:     *onPersist,
		RestoreOnPanic:     *panicRest,
		BreakerThreshold:   *brThresh,
		BreakerBackoff:     *brBackoff,
		BreakerMaxBackoff:  *brMaxBack,
		Audit:              *audit || *auditIvl > 0 || *sloTarget > 0,
		AuditInterval:      *auditIvl,
		AuditShadow:        *auditShad,
		AuditReservoir:     *auditRes,
		AuditSeed:          *auditSeed,
		SLOTarget:          *sloTarget,
		SLOWindow:          *sloWindow,
		Metrics:            reg,
		EnablePprof:        *pprof,
		Trace:              tr,
		Logger:             logger,
	})
	if err != nil {
		fatal(logger, "open", "err", err)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}
	durable := "in-memory only"
	if *dataDir != "" {
		durable = fmt.Sprintf("data-dir %s, checkpoint every %s, fsync=%v", *dataDir, *ckptIvl, *fsync)
	}
	logger.Info("streamhistd listening",
		"addr", *addr, "window", *window, "buckets", *buckets,
		"eps", *eps, "delta", *delta, "shards", *shards,
		"incremental", *incr,
		"durability", durable, "tracing", tr != nil,
		"audit", *audit || *auditIvl > 0 || *sloTarget > 0)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		// Listener failed before any signal; still persist what we have.
		if cerr := s.Close(); cerr != nil {
			logger.Error("close", "err", cerr)
		}
		fatal(logger, "listen", "err", err)
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down", "drain_timeout", *shutTmo)
	sctx, cancel := context.WithTimeout(context.Background(), *shutTmo)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("drain", "err", err)
	}
	if err := s.Close(); err != nil {
		fatal(logger, "close", "err", err)
	}
	if *dataDir != "" {
		logger.Info("final checkpoint written; bye", "seen", s.Seen())
	} else {
		logger.Info("bye (state not persisted)", "seen", s.Seen())
	}
}

// newLogger builds the daemon's slog.Logger from the -log-format and
// -log-level flags.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

// fatal logs at error level and exits nonzero — the slog replacement for
// log.Fatal.
func fatal(logger *slog.Logger, msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}
