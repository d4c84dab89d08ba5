// Package server exposes keyed fixed-window stream summaries over HTTP:
// ingest stream points, query range sums and inspect the current
// histogram — the "network operators commonly pose queries" scenario of
// the paper's introduction, as a deployable multi-tenant component.
// Every stream key owns an independent summary set, hash-partitioned
// across shard loops (internal/shard) for parallelism.
//
// Versioned endpoints (K is a stream key, 1-128 chars of [A-Za-z0-9._-]):
//
//	POST /v1/streams/K/ingest       body: one value per line (text), appended to K's stream
//	GET  /v1/streams/K/histogram    current window buckets as JSON
//	GET  /v1/streams/K/agglom       whole-stream agglomerative histogram as JSON
//	GET  /v1/streams/K/query?lo=&hi= range-sum estimate over window positions
//	GET  /v1/streams/K/quantile?phi= whole-stream quantile (GK summary)
//	GET  /v1/streams/K/selectivity?lo=&hi= fraction of stream values in [lo,hi]
//	GET  /v1/streams/K/stats        stream statistics
//	GET  /v1/streams/K/snapshot     binary fixed-window snapshot (operator download)
//	POST /v1/streams/K/restore      replace K's window from a snapshot download
//	GET  /v1/streams/K/drift        distribution-change check against a reference
//	GET  /v1/streams/K/slo          accuracy SLO state (with Options.Audit)
//	GET  /v1/streams?after=&limit=  page through live stream keys
//	DELETE /v1/streams/K            drop K's stream (durably, via a WAL tombstone)
//	GET  /healthz                   liveness (always 200 while the process runs)
//	GET  /readyz                    readiness (503 while recovering or draining)
//	GET  /metrics                   Prometheus text exposition (with Options.Metrics)
//	GET  /debug/quality             fleet-wide accuracy audit page
//	GET  /debug/trace/events        flight-recorder ring as JSON (with Options.Trace)
//	GET  /debug/trace/chrome        the ring in Chrome trace-event format (with Options.Trace)
//	GET  /debug/pprof/              runtime profiles (with Options.EnablePprof)
//
// The reserved "default" stream always exists, so a single-stream
// client can write and read /v1/streams/default/... without creating
// anything first. Paths outside this list answer 404 not_found.
//
// Error responses (all of them — bad parameters, 413s, overload 429s,
// restore failures, timeouts) share one JSON envelope,
//
//	{"error":{"code":"<machine code>","message":"<human text>"}}
//
// emitted by a single helper; per-stream errors add a "stream" field
// naming the key. See errors.go for the code vocabulary.
//
// With Options.DataDir set the server is crash-safe: acknowledged ingests
// are appended to the owning shard's write-ahead log (internal/wal)
// before being applied, periodic per-shard checkpoints
// (internal/checkpoint) bound replay time, and Open recovers every
// stream after a crash by loading each shard's latest checkpoint and
// replaying its WAL tail — shards recover in parallel. See
// internal/shard.
//
// With Options.Metrics set every layer the request touches is
// instrumented into the shared registry: HTTP (per-endpoint counters,
// status classes, latency quantiles, in-flight gauge), fixed-window
// maintenance, the agglomerative summary, the WAL and checkpoints.
// Per-stream labels are never emitted — labels are per shard, so
// cardinality stays bounded no matter how many keys tenants create. The
// latency quantiles are served by the library's own Greenwald–Khanna
// summaries. See metrics.go.
package server

import (
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"streamhist/internal/agglom"
	"streamhist/internal/core"
	"streamhist/internal/faults"
	"streamhist/internal/obs"
	"streamhist/internal/shard"
	"streamhist/internal/stream"
	"streamhist/internal/trace"
	"streamhist/internal/vhist"
)

// DefaultStream is the reserved stream key that single-stream clients
// and the window gauges in /metrics use. It always exists on a running
// server; deleting it durably drops its data and immediately recreates
// it empty.
const DefaultStream = "default"

// Server states, in lifecycle order.
const (
	stateStarting int32 = iota // recovering; not yet serving
	stateReady                 // serving normally
	stateDraining              // shutting down; reads OK, writes refused
)

// Server is the HTTP handler state. The zero value is unusable; construct
// with New or Open. All per-stream state lives in the shard engine; the
// server itself holds only routing, admission control and wiring.
type Server struct {
	eng *shard.Engine

	mux     *http.ServeMux
	handler http.Handler
	maxBody int64

	// Overload protection: a slot must be free to admit an ingest.
	inflight chan struct{}
	state    atomic.Int32

	// Observability (nil without Options.Metrics; nil tr is the disabled
	// flight recorder). The engine owns the checkpoint and resilience
	// series; panics is the one the HTTP layer increments itself, and
	// shares the engine's handle by name.
	om     *httpMetrics
	panics *obs.Counter
	// driftReanchors counts drift-detector re-anchors fired through the
	// HTTP drift endpoint (the shard auditors share the same series by
	// name). Nil without Options.Metrics.
	driftReanchors *obs.Counter
	tr             *trace.Recorder
	logger         *slog.Logger
	logDebug       bool // logger admits Debug records; precomputed for the request path

	opts      Options
	fs        faults.FS
	closeOnce sync.Once
	closeErr  error

	failpoint func(point string) // server-layer test seam; nil in production
}

// New creates an in-memory server (no durability) maintaining, per
// stream key, a fixed-window histogram (last n points, b buckets, growth
// factor delta), a whole-stream agglomerative histogram, a whole-stream
// GK quantile summary, and a streaming equi-depth value histogram for
// selectivity queries. It is shorthand for Open with only the window
// parameters set; every other configuration goes through Open.
func New(n, b int, eps, delta float64) (*Server, error) {
	return Open(Options{Window: n, Buckets: b, Eps: eps, Delta: delta})
}

// streamOps are the per-stream operations, each mounted at
// /v1/streams/{key}/<name>. This table is the one list of them: it drives
// mux registration, the metrics path label (metricsPath) and the EvHTTP
// trace code. A code is part of the trace format (capture files and
// /debug/trace/events carry it), so an operation keeps its code for
// good and a new one takes an unused number.
var streamOps = []struct {
	name string
	h    func(*Server, http.ResponseWriter, *http.Request, string)
	code uint8
}{
	{"ingest", (*Server).handleIngest, 18},
	{"histogram", (*Server).handleHistogram, 19},
	{"agglom", (*Server).handleAgglom, 20},
	{"query", (*Server).handleQuery, 21},
	{"stats", (*Server).handleStats, 22},
	{"quantile", (*Server).handleQuantile, 23},
	{"selectivity", (*Server).handleSelectivity, 24},
	{"snapshot", (*Server).handleSnapshot, 25},
	{"restore", (*Server).handleRestore, 26},
	{"drift", (*Server).handleDrift, 27},
	{"slo", (*Server).handleSLO, 29},
}

func (s *Server) routes() {
	for _, op := range streamOps {
		s.mux.HandleFunc("/v1/streams/{key}/"+op.name, s.keyed(op.h))
	}
	s.mux.HandleFunc("/v1/streams", s.handleStreams)
	s.mux.HandleFunc("/v1/streams/{key}", s.keyed((*Server).handleStreamRoot))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	if s.opts.Metrics != nil {
		s.mux.Handle("/metrics", s.opts.Metrics.Handler())
	}
	if s.tr != nil {
		s.mux.HandleFunc("/debug/trace/events", s.handleTraceEvents)
		s.mux.HandleFunc("/debug/trace/chrome", s.handleTraceChrome)
	}
	s.mux.HandleFunc("/debug/quality", s.handleDebugQuality)
	s.mux.HandleFunc("/", handleNotFound)
	// traceware sits innermost so request spans measure handler time and
	// the span ID reaches the handlers through the request context.
	h := s.traceware(s.mux)
	if s.opts.RequestTimeout > 0 {
		h = http.TimeoutHandler(h, s.opts.RequestTimeout, timeoutBody)
	}
	if s.opts.EnablePprof {
		// Profiles stream for longer than RequestTimeout by design
		// (/debug/pprof/profile?seconds=30), so they bypass the timeout
		// handler.
		h = withPprof(h)
	}
	// recoverware sits outside the timeout handler (which re-raises its
	// child goroutine's panic here) but inside the metrics middleware, so
	// a contained panic is still counted and the in-flight gauge still
	// balances.
	h = s.recoverware(h)
	s.handler = s.om.middleware(h)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// validStreamKey bounds stream keys: 1-128 chars of [A-Za-z0-9._-].
// Keys are WAL record fields and map keys, so the bound also caps
// per-record overhead.
func validStreamKey(key string) bool {
	if len(key) == 0 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// keyed adapts a per-stream handler to a /v1 route carrying {key}.
// Syntactically invalid keys answer 404 in the stream error envelope —
// they can never name an existing stream.
func (s *Server) keyed(h func(*Server, http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if !validStreamKey(key) {
			writeStreamError(w, http.StatusNotFound, errUnknownStream, key,
				"unknown stream %q (keys are 1-128 chars of [A-Za-z0-9._-])", key)
			return
		}
		h(s, w, r, key)
	}
}

// handleNotFound answers every path no route claims, in the error
// envelope rather than ServeMux's plain-text 404.
func handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, errNotFound, "no route for %s", r.URL.Path)
}

// ingestScratch holds the reusable parse buffers of one ingest request:
// the scanner's line buffer and the destination value slice.
type ingestScratch struct {
	buf  []byte
	vals []float64
}

var ingestPool = sync.Pool{New: func() any {
	return &ingestScratch{buf: make([]byte, 64*1024)}
}}

// requireMethod answers 405 in the error envelope — with the Allow
// header listing what would have worked — unless the request uses one of
// the given methods.
func requireMethod(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	for _, m := range methods {
		if r.Method == m {
			return true
		}
	}
	allow := methods[0]
	for _, m := range methods[1:] {
		allow += ", " + m
	}
	w.Header().Set("Allow", allow)
	if len(methods) == 1 {
		writeError(w, http.StatusMethodNotAllowed, errMethodNotAllowed, "%s required", methods[0])
	} else {
		writeError(w, http.StatusMethodNotAllowed, errMethodNotAllowed, "one of %s required", allow)
	}
	return false
}

// writeEngineError maps the shard engine's sentinel errors onto the HTTP
// envelope, reporting whether it wrote a response. Unmapped errors are
// left to the caller, whose context decides the 500 message.
func (s *Server) writeEngineError(w http.ResponseWriter, key string, err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, shard.ErrUnknownStream):
		writeStreamError(w, http.StatusNotFound, errUnknownStream, key, "unknown stream %q", key)
	case errors.Is(err, shard.ErrQuotaKeys):
		writeStreamError(w, http.StatusTooManyRequests, errQuotaExceeded, key,
			"stream quota exceeded (max %d streams)", s.opts.MaxKeys)
	case errors.Is(err, shard.ErrKeyBusy):
		s.setRetryAfter(w)
		writeStreamError(w, http.StatusTooManyRequests, errOverloaded, key,
			"too many in-flight requests for stream %q", key)
	case errors.Is(err, shard.ErrQuarantined):
		w.Header().Set("Retry-After", "1")
		writeStreamError(w, http.StatusServiceUnavailable, errQuarantined, key,
			"state quarantined after a panic; restore or restart pending")
	case errors.Is(err, shard.ErrDegraded):
		s.setRetryAfter(w)
		writeStreamError(w, http.StatusServiceUnavailable, errDegraded, key,
			"durability degraded; ingests refused by policy")
	case errors.Is(err, shard.ErrShuttingDown):
		w.Header().Set("Retry-After", "1")
		writeStreamError(w, http.StatusServiceUnavailable, errNotReady, key, "not ready")
	default:
		return false
	}
	return true
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, key string) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	if s.state.Load() != stateReady {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, errNotReady, "not ready")
		return
	}
	if s.eng.QuarantinedFor(key) {
		w.Header().Set("Retry-After", "1")
		writeStreamError(w, http.StatusServiceUnavailable, errQuarantined, key,
			"state quarantined after a panic; restore or restart pending")
		return
	}
	// Admission control: refuse rather than queue when every in-flight
	// slot is taken, so saturation surfaces as fast 429s instead of
	// unbounded goroutine and memory growth.
	select {
	case s.inflight <- struct{}{}:
		defer func() { <-s.inflight }()
	default:
		s.setRetryAfter(w)
		writeError(w, http.StatusTooManyRequests, errOverloaded, "too many in-flight ingests")
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	// Parse with pooled buffers: the scanner's line buffer and the value
	// slice are reused across requests, and lines are parsed as byte-slice
	// views (stream.ParseFloatBytes), so steady-state ingest parsing does
	// not allocate.
	scratch := ingestPool.Get().(*ingestScratch)
	defer func() {
		scratch.vals = scratch.vals[:0]
		ingestPool.Put(scratch)
	}()
	values, err := stream.AppendValues(scratch.vals[:0], body, scratch.buf)
	scratch.vals = values
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, errBodyTooLarge, "body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, errBadRequest, "%v", err)
		return
	}
	// The span code attributes the work to the owning shard; the WAL
	// append and fsync events land under this span via the engine.
	ispan := s.tr.StartSpan(spanFromContext(r.Context()), trace.EvIngest,
		uint8(s.eng.ShardFor(key)), 0, int64(len(values)))
	s.failAt("ingest.before-lock")
	seen, degradedAck, ierr := s.eng.Ingest(key, ispan.ID(), values)
	if ierr != nil {
		ispan.End(0, 0)
		if s.writeEngineError(w, key, ierr) {
			return
		}
		writeError(w, http.StatusInternalServerError, errInternal, "%v", ierr)
		return
	}
	ispan.End(0, int64(len(values)))
	if degradedAck {
		writeJSON(w, map[string]any{"ingested": len(values), "seen": seen, "degraded": true})
		return
	}
	writeJSON(w, map[string]any{"ingested": len(values), "seen": seen})
}

func (s *Server) handleHistogram(w http.ResponseWriter, r *http.Request, key string) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	var (
		res         *core.Result
		windowStart int64
	)
	verr := s.eng.View(key, func(st *shard.State) error {
		s.setTraceParent(r, st.FW) // a lazy flush here is this request's doing
		var err error
		res, err = st.FW.Histogram()
		windowStart = st.FW.WindowStart()
		return err
	})
	if s.writeEngineError(w, key, verr) {
		return
	}
	if verr != nil {
		writeError(w, http.StatusConflict, errConflict, "%v", verr)
		return
	}
	writeJSON(w, map[string]any{
		"windowStart": windowStart,
		"sse":         res.SSE,
		"buckets":     bucketsJSON(res.Histogram.Buckets),
	})
}

// handleAgglom serves the whole-stream agglomerative histogram: bucket
// boundaries are stream positions since the start of the stream, not
// window positions.
func (s *Server) handleAgglom(w http.ResponseWriter, r *http.Request, key string) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	var (
		res          *agglom.Result
		endpoints, n int
	)
	verr := s.eng.View(key, func(st *shard.State) error {
		n = st.Agg.N()
		if n == 0 {
			return nil
		}
		var err error
		res, err = st.Agg.Histogram()
		endpoints = st.Agg.StoredEndpoints()
		return err
	})
	if s.writeEngineError(w, key, verr) {
		return
	}
	if verr == nil && n == 0 {
		writeError(w, http.StatusConflict, errConflict, "stream is empty")
		return
	}
	if verr != nil {
		writeError(w, http.StatusConflict, errConflict, "%v", verr)
		return
	}
	writeJSON(w, map[string]any{
		"n":         n,
		"sse":       res.SSE,
		"endpoints": endpoints,
		"buckets":   bucketsJSON(res.Histogram.Buckets),
	})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, key string) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	// Parse first, then answer from one View, so the emptiness check, the
	// range check and the flush all see the same state of the stream. An
	// empty window still answers 409 before malformed parameters do.
	lo, err1 := strconv.Atoi(r.URL.Query().Get("lo"))
	hi, err2 := strconv.Atoi(r.URL.Query().Get("hi"))
	parsed := err1 == nil && err2 == nil
	var (
		res     *core.Result
		length  int
		inRange bool
	)
	verr := s.eng.View(key, func(st *shard.State) error {
		length = st.FW.Len()
		if !parsed || lo < 0 || hi >= length || hi < lo {
			return nil
		}
		inRange = true
		s.setTraceParent(r, st.FW)
		var err error
		res, err = st.FW.Histogram()
		return err
	})
	if s.writeEngineError(w, key, verr) {
		return
	}
	if length == 0 {
		writeError(w, http.StatusConflict, errConflict, "window is empty")
		return
	}
	if !parsed {
		writeError(w, http.StatusBadRequest, errBadRequest, "lo and hi must be integers")
		return
	}
	if !inRange {
		writeError(w, http.StatusBadRequest, errBadRequest, "range [%d,%d] outside window [0,%d]", lo, hi, length-1)
		return
	}
	if verr != nil {
		writeError(w, http.StatusConflict, errConflict, "%v", verr)
		return
	}
	writeJSON(w, map[string]any{
		"lo":       lo,
		"hi":       hi,
		"estimate": res.Histogram.EstimateRangeSum(lo, hi),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, key string) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	var (
		st     stream.Counter
		length int
		seen   int64
	)
	verr := s.eng.View(key, func(state *shard.State) error {
		st, length, seen = state.Stats, state.FW.Len(), state.FW.Seen()
		return nil
	})
	if s.writeEngineError(w, key, verr) {
		return
	}
	writeJSON(w, map[string]any{
		"seen":     seen,
		"window":   length,
		"mean":     st.Mean(),
		"variance": st.Variance(),
		"min":      st.Min,
		"max":      st.Max,
	})
}

func (s *Server) handleQuantile(w http.ResponseWriter, r *http.Request, key string) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	phi, err := strconv.ParseFloat(r.URL.Query().Get("phi"), 64)
	if err != nil || !(phi >= 0 && phi <= 1) { // NaN fails both comparisons
		writeError(w, http.StatusBadRequest, errBadRequest, "phi must be a number in [0,1]")
		return
	}
	var (
		v    float64
		n    int64
		qerr error
	)
	verr := s.eng.View(key, func(st *shard.State) error {
		v, qerr = st.GK.Query(phi)
		n = st.GK.N()
		return nil
	})
	if s.writeEngineError(w, key, verr) {
		return
	}
	if qerr != nil {
		writeError(w, http.StatusConflict, errConflict, "%v", qerr)
		return
	}
	writeJSON(w, map[string]any{"phi": phi, "value": v, "n": n})
}

func (s *Server) handleSelectivity(w http.ResponseWriter, r *http.Request, key string) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	lo, err1 := strconv.ParseFloat(r.URL.Query().Get("lo"), 64)
	hi, err2 := strconv.ParseFloat(r.URL.Query().Get("hi"), 64)
	// NaN fails the lo <= hi comparison; ±Inf bounds would be echoed in
	// the answer, which JSON cannot carry.
	if err1 != nil || err2 != nil || !(lo <= hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		writeError(w, http.StatusBadRequest, errBadRequest, "lo and hi must be finite numbers with lo <= hi")
		return
	}
	var (
		h    *vhist.VHistogram
		herr error
	)
	verr := s.eng.View(key, func(st *shard.State) error {
		h, herr = st.Sed.Histogram()
		return nil
	})
	if s.writeEngineError(w, key, verr) {
		return
	}
	if herr != nil {
		writeError(w, http.StatusConflict, errConflict, "%v", herr)
		return
	}
	writeJSON(w, map[string]any{
		"lo": lo, "hi": hi,
		"selectivity":    h.Selectivity(lo, hi),
		"estimatedCount": h.EstimateCount(lo, hi),
	})
}

// handleSnapshot serves the fixed-window snapshot as a binary download so
// an operator can archive the window or seed another stream via restore.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request, key string) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	var blob []byte
	verr := s.eng.View(key, func(st *shard.State) error {
		var err error
		blob, err = st.FW.MarshalBinary()
		return err
	})
	if s.writeEngineError(w, key, verr) {
		return
	}
	if verr != nil {
		writeError(w, http.StatusInternalServerError, errInternal, "%v", verr)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := w.Write(blob); err != nil {
		return
	}
}

// handleRestore is the inverse of snapshot: it replaces the stream's
// window with an uploaded snapshot so an operator can seed a fresh
// stream. The whole-stream summaries (agglomerative histogram,
// quantiles, selectivity, stats, drift reference) are not part of a
// window snapshot and restart empty. On a durable server the restored
// state is checkpointed and the shard's WAL reset before the request is
// acknowledged.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request, key string) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	if s.state.Load() != stateReady {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, errNotReady, "not ready")
		return
	}
	if s.eng.QuarantinedFor(key) {
		w.Header().Set("Retry-After", "1")
		writeStreamError(w, http.StatusServiceUnavailable, errQuarantined, key,
			"state quarantined after a panic; restore or restart pending")
		return
	}
	blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, errBodyTooLarge, "body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, errBadRequest, "%v", err)
		return
	}
	seen, length, rerr := s.eng.Restore(key, blob)
	if rerr != nil {
		if s.writeEngineError(w, key, rerr) {
			return
		}
		if errors.Is(rerr, shard.ErrBadSnapshot) {
			writeError(w, http.StatusBadRequest, errBadSnapshot, "%v", rerr)
			return
		}
		writeError(w, http.StatusInternalServerError, errInternal, "%v", rerr)
		return
	}
	writeJSON(w, map[string]any{"restored": true, "seen": seen, "window": length})
}

// handleDrift compares the current window's histogram against the drift
// reference (installed on the first call), returning the normalized L2
// distance and whether the distribution drifted; on drift the reference
// re-anchors to the current window.
func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request, key string) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	var (
		dist           float64
		drifted        bool
		alarms, checks int
		derr           error
	)
	verr := s.eng.View(key, func(st *shard.State) error {
		s.setTraceParent(r, st.FW)
		res, err := st.FW.Histogram()
		if err != nil {
			return err
		}
		// While the window is still filling its span grows between calls;
		// re-anchor rather than compare histograms of different extents.
		if ref := st.Det.Reference(); ref != nil {
			rs, re := ref.Span()
			cs, ce := res.Histogram.Span()
			if rs != cs || re != ce {
				st.Det.Reset()
			}
		}
		dist, drifted, derr = st.Det.Observe(res.Histogram)
		alarms, checks = st.Det.Alarms(), st.Det.Checks()
		return nil
	})
	if s.writeEngineError(w, key, verr) {
		return
	}
	if verr != nil {
		writeError(w, http.StatusConflict, errConflict, "%v", verr)
		return
	}
	if derr != nil {
		writeError(w, http.StatusInternalServerError, errInternal, "%v", derr)
		return
	}
	if drifted {
		// The detector just re-anchored its reference; surface the event
		// (counter + trace instant) instead of firing invisibly.
		s.emitDrift(key, dist, alarms)
	}
	writeJSON(w, map[string]any{
		"distance": dist,
		"drifted":  drifted,
		"alarms":   alarms,
		"checks":   checks,
	})
}

// handleStreams pages through live stream keys in lexicographic order:
// ?after= resumes past a key, ?limit= caps the page (default 100, max
// 1000), and a "next" cursor appears whenever more keys remain.
func (s *Server) handleStreams(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	limit := 100
	if ls := r.URL.Query().Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, errBadRequest, "limit must be a positive integer")
			return
		}
		if n > 1000 {
			n = 1000
		}
		limit = n
	}
	keys := s.eng.Keys()
	if after := r.URL.Query().Get("after"); after != "" {
		idx := sort.SearchStrings(keys, after)
		if idx < len(keys) && keys[idx] == after {
			idx++
		}
		keys = keys[idx:]
	}
	next := ""
	if len(keys) > limit {
		keys = keys[:limit]
		next = keys[len(keys)-1]
	}
	if keys == nil {
		keys = []string{}
	}
	resp := map[string]any{"streams": keys, "count": len(keys)}
	if next != "" {
		resp["next"] = next
	}
	writeJSON(w, resp)
}

// handleStreamRoot serves /v1/streams/{key} itself: DELETE durably drops
// the stream (a WAL tombstone makes the deletion crash-safe). Deleting
// the reserved default stream recreates it empty, so it always exists.
func (s *Server) handleStreamRoot(w http.ResponseWriter, r *http.Request, key string) {
	if !requireMethod(w, r, http.MethodDelete) {
		return
	}
	if s.state.Load() != stateReady {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, errNotReady, "not ready")
		return
	}
	err := s.eng.Delete(key, spanFromContext(r.Context()))
	if err != nil {
		if s.writeEngineError(w, key, err) {
			return
		}
		writeError(w, http.StatusInternalServerError, errInternal, "%v", err)
		return
	}
	if key == DefaultStream {
		if err := s.eng.Ensure(DefaultStream); err != nil {
			writeError(w, http.StatusInternalServerError, errInternal, "recreating default stream: %v", err)
			return
		}
	}
	writeJSON(w, map[string]any{"deleted": true, "stream": key})
}

// handleHealthz is liveness: the process is up and serving. The one
// exception is quarantine — after a lock-held panic a shard's state is
// suspect, and reporting unhealthy lets an orchestrator restart the
// process (the durable state on disk recovers it) when RestoreOnPanic
// is not doing so in-process.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.eng.Quarantined() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "unhealthy", "reason": "quarantined"})
		return
	}
	writeJSON(w, map[string]any{"status": "ok", "degraded": s.eng.Degraded()})
}

// handleReadyz is readiness: 503 while the server recovers state at
// startup, drains at shutdown, has a quarantined shard, or is degraded
// under the refuse policy (writes would 503 anyway) — so load balancers
// stop routing before writes start failing. A degraded server under the
// degrade policy stays ready and advertises "degraded":true. Either way
// the body carries per-shard detail — stream count, degraded and
// quarantined flags, breaker state — so an operator reading a 503 (or a
// half-degraded 200) sees which stripe is the problem without grepping
// logs.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var status string
	switch s.state.Load() {
	case stateReady:
		status = "ready"
	case stateDraining:
		status = "draining"
	default:
		status = "starting"
	}
	degraded := s.eng.Degraded()
	if status == "ready" {
		switch {
		case s.eng.Quarantined():
			status = "quarantined"
		case degraded && s.opts.OnPersistError == OnPersistRefuse:
			status = "degraded"
		}
	}
	body := map[string]any{
		"status":   status,
		"degraded": degraded,
		"shards":   s.eng.ShardStatuses(),
	}
	if status != "ready" {
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(body)
		return
	}
	writeJSON(w, body)
}

// bucketJSON is the wire form of one histogram bucket.
type bucketJSON struct {
	Start int     `json:"start"`
	End   int     `json:"end"`
	Value float64 `json:"value"`
}

func bucketsJSON[B interface {
	~struct {
		Start int
		End   int
		Value float64
	}
}](bs []B) []bucketJSON {
	out := make([]bucketJSON, len(bs))
	for i, b := range bs {
		out[i] = bucketJSON(b)
	}
	return out
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing useful left to do.
		return
	}
}
