package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"streamhist/internal/checkpoint"
	"streamhist/internal/core"
	"streamhist/internal/faults"
	"streamhist/internal/obs"
	"streamhist/internal/server"
	"streamhist/internal/shard"
	"streamhist/internal/stream"
	"streamhist/internal/wal"
)

// The traced run replays the script in process: server.Open with the
// daemon's default options (read from its -h output) plus the
// workload's durability flags, requests through Server.ServeHTTP, two
// client goroutines as in the untraced run. One option departs from the
// daemon: the in-process server runs without a request timeout. The
// daemon's -request-timeout wraps the handlers in http.TimeoutHandler,
// which buffers the reply and touches the outer response writer only
// after the handler's goroutine has returned, so the writer could not
// mark the end of the engine call. It makes two passes on fresh state:
//
//   - untimed: plain requests on the plain filesystem; its throughput is
//     the base of trace.overhead_frac, and its program counters must
//     equal the timed pass's exactly (same seed, same work);
//   - timed: every layer is timed from the benchmark's side of its
//     public calls. ServeHTTP is the server span; the request body
//     records its first read and its EOF (the parse span starts at the
//     first read), and the response writer records the handler's first
//     use of it: an ingest handler's writeJSON sets the content type
//     right after Engine.Ingest returns, so that ends the covered engine
//     call. A timing faults.FS times WAL writes and fsyncs and
//     checkpoint saves. Each written stream has replicas of its
//     core.FixedWindow, agglom.Summary, quantile.GK and
//     vhist.StreamingEqualDepth, restored from the live state's own
//     snapshot and derived by shard.NewState, so a changed default is
//     mirrored. After the pass they replay the same requests in the same
//     order, each call timed, so replica work never perturbs the timed
//     requests; a layer's self time subtracts the replica's cost of the
//     same work from the covering span.

// clock is nanoseconds since the run's base time.
type clock struct{ base time.Time }

func (c clock) now() time.Duration { return time.Since(c.base) }

// hookBody is a request body that records when the handler starts
// reading it and when it reaches EOF.
type hookBody struct {
	r          *bytes.Reader
	clk        clock
	first, eof time.Duration
}

func (b *hookBody) Read(p []byte) (int, error) {
	if b.first == 0 {
		b.first = b.clk.now()
	}
	n, err := b.r.Read(p)
	if err == io.EOF && b.eof == 0 {
		b.eof = b.clk.now()
	}
	return n, err
}

// respRec is an in-memory ResponseWriter that records its first use.
type respRec struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
	clk    *clock // nil: no timing
	first  time.Duration
}

func newRespRec(clk *clock) *respRec { return &respRec{hdr: http.Header{}, clk: clk} }

func (r *respRec) mark() {
	if r.clk != nil && r.first == 0 {
		r.first = r.clk.now()
	}
}

func (r *respRec) Header() http.Header { r.mark(); return r.hdr }

func (r *respRec) WriteHeader(code int) {
	r.mark()
	if r.status == 0 {
		r.status = code
	}
}

func (r *respRec) Write(p []byte) (int, error) {
	r.mark()
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

// serve sends one in-process request and decodes a 200 JSON reply.
func serve(h http.Handler, method, path string, body io.Reader, rec *respRec, out any) error {
	req, err := http.NewRequest(method, path, body)
	if err != nil {
		return err
	}
	h.ServeHTTP(rec, req)
	if rec.status != http.StatusOK {
		return fmt.Errorf("%s %s: %d %s", method, path, rec.status, bytes.TrimSpace(rec.body.Bytes()))
	}
	if out == nil {
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = rec.body.Bytes()
		return nil
	}
	return json.Unmarshal(rec.body.Bytes(), out)
}

func handlerCall(h http.Handler) call {
	return func(method, path string, body []byte, out any) error {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		return serve(h, method, path, rd, newRespRec(nil), out)
	}
}

// serverOptions mirrors the daemon's defaults and the workload's flags,
// except that RequestTimeout stays 0 (see the top of this file). fsys nil
// means the plain filesystem.
func serverOptions(defs daemonDefaults, w Workload, dataDir string, fsys faults.FS) (server.Options, error) {
	o := server.Options{
		Window:            defs.int("window"),
		Buckets:           defs.int("buckets"),
		Eps:               defs.float("eps"),
		Delta:             effectiveDelta(defs),
		Incremental:       defs.bool("incremental"),
		Shards:            defs.int("shards"),
		MaxKeys:           defs.int("max-keys"),
		KeyInflight:       defs.int("key-inflight"),
		MaxBody:           int64(defs.int("maxbody")),
		MaxInflight:       defs.int("max-inflight"),
		OnPersistError:    defs["on-persist-error"],
		BreakerThreshold:  defs.int("breaker-threshold"),
		BreakerBackoff:    defs.duration("breaker-backoff"),
		BreakerMaxBackoff: defs.duration("breaker-max-backoff"),
		Logger:            slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if defs.bool("metrics") {
		o.Metrics = obs.NewRegistry()
	}
	if w.Durable {
		ivl, err := time.ParseDuration(ckptInterval)
		if err != nil {
			return o, err
		}
		o.DataDir, o.CheckpointInterval, o.SyncEveryAppend, o.FS = dataDir, ivl, walFsync, fsys
	}
	return o, nil
}

// liveCounters are program counters the script fixes; two passes of one
// seed must read them identically.
var liveCounters = []string{
	"streamhist_core_rebuilds_total",
	"streamhist_core_herr_evals_total",
	"streamhist_core_memo_hits_total",
	"streamhist_core_memo_misses_total",
	"streamhist_core_warm_hits_total",
	"streamhist_core_warm_fallbacks_total",
	"streamhist_agglom_points_total",
	"streamhist_agglom_intervals_opened_total",
}

func readCounters(reg *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	if reg == nil {
		return out
	}
	for _, name := range liveCounters {
		out[name] = reg.Counter(name, "").Value()
	}
	return out
}

// ingestRec and queryRec are one timed request each.
type ingestRec struct {
	t0, t1, t2, t3, t4 time.Duration
	shard, points      int
	apply              time.Duration // replica apply of the same batch
}

type queryRec struct {
	total, flush time.Duration
}

// layerTotals accumulates one client's replica and parse timings.
type layerTotals struct {
	points                      int64
	parse, core, agg, gk, sed   time.Duration
	flushes                     []float64 // ms
	evals, memoHits, memoMisses int64
	warmHits, warmFallbacks     int64
	incrHits, incrFallbacks     int64
	ingests                     []ingestRec
	queries                     []queryRec
	attempted, failed           int
	problems                    []string
	acked                       int64 // acknowledged points
}

func (l *layerTotals) problem(format string, args ...any) {
	if len(l.problems) < 10 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// passState is one in-process server with its set-up done.
type passState struct {
	srv *server.Server
	reg *obs.Registry
	fs  *timingFS
}

// openPass sets up a fresh in-process server the way the untraced run
// sets up the daemon: recovery from a copy of the prepared dir, or
// /restore of every window. Only the timed pass writes through the
// timing filesystem.
func openPass(defs daemonDefaults, w Workload, prep, dir string, blobs [][]byte, clk clock, timed bool) (*passState, error) {
	p := &passState{}
	var fsys faults.FS // nil: the plain filesystem
	if timed {
		p.fs = newTimingFS(clk)
		fsys = p.fs
	}
	if w.Durable {
		if err := copyDir(dir, prep); err != nil {
			return nil, err
		}
	}
	opts, err := serverOptions(defs, w, dir, fsys)
	if err != nil {
		return nil, err
	}
	if p.srv, err = server.Open(opts); err != nil {
		return nil, err
	}
	p.reg = opts.Metrics
	if !w.Durable {
		if err := restoreAll(handlerCall(p.srv), blobs); err != nil {
			_ = p.srv.Close() // the seeding error is the one to report
			return nil, err
		}
	}
	return p, nil
}

// opRec is what the timed pass observed for one request: the ServeHTTP
// span [t0, t4] and, for an ingest, the first body read t1, the body EOF
// t2 and the handler's first write t3; for a query, the served estimate.
type opRec struct {
	ok                 bool
	t0, t1, t2, t3, t4 time.Duration
	estimate           float64
}

// runPassOps drives one client's ops in process and returns what each
// request observed; the hooks are only installed when timed.
func runPassOps(p *passState, ops []Op, clk clock, timed bool, lt *layerTotals) []opRec {
	recs := make([]opRec, len(ops))
	for i, op := range ops {
		key := streamKey(op.Stream)
		lt.attempted++
		var body io.Reader
		var w *respRec
		var out any
		var path, method string
		var ir ingestReply
		var qr queryReply
		if op.Kind == opIngest {
			method, path, out = http.MethodPost, "/v1/streams/"+key+"/ingest", &ir
			body = bytes.NewReader(op.Body)
		} else {
			method, out = http.MethodGet, &qr
			path = "/v1/streams/" + key + "/query?lo=" + strconv.Itoa(op.Lo) + "&hi=" + strconv.Itoa(op.Hi)
		}
		var hb *hookBody
		if timed {
			w = newRespRec(&clk)
			if body != nil {
				hb = &hookBody{r: bytes.NewReader(op.Body), clk: clk}
				body = hb
			}
		} else {
			w = newRespRec(nil)
		}
		t0 := clk.now()
		err := serve(p.srv, method, path, body, w, out)
		t4 := clk.now()
		if err != nil {
			lt.failed++
			lt.problem("%v", err)
			continue
		}
		recs[i] = opRec{ok: true, t0: t0, t3: w.first, t4: t4, estimate: qr.Estimate}
		if hb != nil {
			recs[i].t1, recs[i].t2 = hb.first, hb.eof
		}
		if op.Kind == opIngest {
			if ir.Seen != op.Seen || ir.Ingested != len(op.Values) || ir.Degraded {
				lt.problem("%s: ack seen=%d ingested=%d degraded=%v, script expects seen=%d", key, ir.Seen, ir.Ingested, ir.Degraded, op.Seen)
			}
			lt.acked += int64(ir.Ingested)
		}
	}
	return recs
}

// replay feeds one client's ops to its replicas after the timed pass, so
// replica work never perturbs the contention the pass measured: each
// ingest body is parsed with stream.AppendValues and applied, each query
// flushes the replica's histogram, which must give the served estimate.
func replay(ops []Op, recs []opRec, reps map[int]*shard.State, clk clock, shards int, incremental bool, lt *layerTotals) {
	scratch := make([]byte, 64*1024)
	var vals []float64
	for i, op := range ops {
		rec, rp, key := recs[i], reps[op.Stream], streamKey(op.Stream)
		if !rec.ok {
			continue
		}
		switch op.Kind {
		case opIngest:
			t := clk.now()
			var err error
			vals, err = stream.AppendValues(vals[:0], bytes.NewReader(op.Body), scratch)
			lt.parse += clk.now() - t
			if err != nil || len(vals) != len(op.Values) {
				lt.problem("%s: stream.AppendValues: %d values, %v", key, len(vals), err)
			}
			lt.ingests = append(lt.ingests, ingestRec{t0: rec.t0, t1: rec.t1, t2: rec.t2, t3: rec.t3, t4: rec.t4,
				shard: shardOf(key, shards), points: len(op.Values), apply: applyReplica(rp, op.Values, clk, lt, incremental)})
		case opQuery:
			h, flush := replicaHistogram(rp, clk, lt)
			if h == nil {
				lt.problem("%s: replica histogram failed", key)
				continue
			}
			if want := rangeEstimate(h, op.Lo, op.Hi); !sameFloat(rec.estimate, want) {
				lt.problem("%s: /query [%d,%d] = %g, replica histogram gives %g", key, op.Lo, op.Hi, rec.estimate, want)
			}
			lt.queries = append(lt.queries, queryRec{total: rec.t4 - rec.t0, flush: flush})
		}
	}
}

// apply feeds a batch to the replicas exactly as the shard loop applies
// it, timing each layer, and returns the whole apply time.
func applyReplica(st *shard.State, vs []float64, clk clock, lt *layerTotals, incremental bool) time.Duration {
	t0 := clk.now()
	if incremental {
		st.FW.PushBatch(vs)
	} else {
		for _, v := range vs {
			st.FW.PushLazy(v)
		}
	}
	t1 := clk.now()
	for _, v := range vs {
		st.Agg.Push(v)
	}
	t2 := clk.now()
	for _, v := range vs {
		st.GK.Insert(v)
	}
	t3 := clk.now()
	for _, v := range vs {
		st.Sed.Push(v)
	}
	t4 := clk.now()
	lt.core += t1 - t0
	lt.agg += t2 - t1
	lt.gk += t3 - t2
	lt.sed += t4 - t3
	lt.points += int64(len(vs))
	return t4 - t0
}

// replicaHistogram extracts the replica's histogram and times it. With lt
// set the window is dirty: the call is a flush, and its time and the
// rebuild counters it moves accumulate in lt.
func replicaHistogram(st *shard.State, clk clock, lt *layerTotals) ([]bucketJSON, time.Duration) {
	fw := st.FW
	e0, _ := fw.Evals()
	mh0, mm0 := fw.MemoStats()
	wh0, wf0 := fw.WarmStats()
	ih0, _, if0 := fw.IncrementalStats()
	t := clk.now()
	res, err := fw.Histogram()
	d := clk.now() - t
	if err != nil {
		return nil, d
	}
	if lt != nil {
		e1, _ := fw.Evals()
		mh1, mm1 := fw.MemoStats()
		wh1, wf1 := fw.WarmStats()
		ih1, _, if1 := fw.IncrementalStats()
		lt.evals += e1 - e0
		lt.memoHits += mh1 - mh0
		lt.memoMisses += mm1 - mm0
		lt.warmHits += wh1 - wh0
		lt.warmFallbacks += wf1 - wf0
		lt.incrHits += ih1 - ih0
		lt.incrFallbacks += if1 - if0
		lt.flushes = append(lt.flushes, float64(d.Nanoseconds())/1e6)
	}
	out := make([]bucketJSON, len(res.Histogram.Buckets))
	for i, b := range res.Histogram.Buckets {
		out[i] = bucketJSON{Start: b.Start, End: b.End, Value: b.Value}
	}
	return out, d
}

// passResult is what one in-process pass measured.
type passResult struct {
	pps    float64
	counts map[string]int64
	// measured and readback are the clients' totals per phase; phase is
	// the measured phase's interval on the run clock.
	measured, readback []*layerTotals
	phase              span
	restores           []float64 // ms per UnmarshalBinary
	reps               map[int]*shard.State
	shards             int
}

// runPass sets up a fresh in-process server and replays the script.
func runPass(defs daemonDefaults, s *Script, prep, dir string, blobs [][]byte, clk clock, timed bool) (_ *passState, _ *passResult, err error) {
	p, err := openPass(defs, s.Workload, prep, dir, blobs, clk, timed)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			_ = p.srv.Close() // the pass has failed; its error is the one to report
		}
	}()
	if err := checkRouting(handlerCall(p.srv), s); err != nil {
		return nil, nil, err
	}
	pm := &passResult{shards: s.Shards}
	incremental := defs.bool("incremental")
	var repsByClient [clients]map[int]*shard.State
	if timed {
		pm.reps = map[int]*shard.State{}
		for c := 0; c < clients; c++ {
			repsByClient[c] = map[int]*shard.State{}
			for _, phase := range [][clients][]Op{s.Measured, s.Readback} {
				for _, op := range phase[c] {
					if _, ok := repsByClient[c][op.Stream]; ok {
						continue
					}
					var blob []byte
					if err := serve(p.srv, http.MethodGet, "/v1/streams/"+streamKey(op.Stream)+"/snapshot", nil, newRespRec(nil), &blob); err != nil {
						return nil, nil, err
					}
					fw := &core.FixedWindow{}
					t := clk.now()
					if err := fw.UnmarshalBinary(blob); err != nil {
						return nil, nil, err
					}
					pm.restores = append(pm.restores, float64((clk.now()-t).Nanoseconds())/1e6)
					fw.SetIncrementalRebuild(incremental)
					st, err := shard.NewState(fw)
					if err != nil {
						return nil, nil, err
					}
					repsByClient[c][op.Stream] = st
					pm.reps[op.Stream] = st
				}
			}
		}
	}
	run := func(phase [clients][]Op, lts []*layerTotals) (time.Duration, [clients][]opRec) {
		var wg sync.WaitGroup
		var recs [clients][]opRec
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				recs[c] = runPassOps(p, phase[c], clk, timed, lts[c])
			}(c)
		}
		wg.Wait()
		return time.Since(start), recs
	}
	measured := []*layerTotals{{}, {}}
	pm.phase.Start = clk.now()
	wall, mrecs := run(s.Measured, measured)
	pm.phase.End = clk.now()
	readback := []*layerTotals{{}, {}}
	_, rrecs := run(s.Readback, readback)
	pm.measured, pm.readback = measured, readback
	var points int64
	for _, lt := range measured {
		points += lt.acked
	}
	pm.pps = float64(points) / wall.Seconds()
	if timed {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				replay(s.Measured[c], mrecs[c], repsByClient[c], clk, pm.shards, incremental, measured[c])
				replay(s.Readback[c], rrecs[c], repsByClient[c], clk, pm.shards, incremental, readback[c])
			}(c)
		}
		wg.Wait()
	}
	pm.counts = readCounters(p.reg)
	return p, pm, nil
}

// runTraced is the --trace 1 run: the untimed and the timed in-process
// passes, the probes, and the per-layer metrics.
func runTraced(cfg runConfig, s *Script, defs daemonDefaults) (*result, error) {
	w := s.Workload
	dir := filepath.Join(cfg.work, fmt.Sprintf("traced-%s-%d", w.Name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	blobs, err := windowBlobs(s, defs)
	if err != nil {
		return nil, err
	}
	clk := clock{base: time.Now()}
	res := newResult()
	res.env["data_fs"] = "none (memory-only)"
	prep := filepath.Join(dir, "prep")
	if w.Durable {
		// Untimed preparation: place the windows in a checkpoint.
		opts, err := serverOptions(defs, w, prep, nil)
		if err != nil {
			return nil, err
		}
		srv, err := server.Open(opts)
		if err != nil {
			return nil, err
		}
		if err := restoreAll(handlerCall(srv), blobs); err != nil {
			_ = srv.Close() // the seeding error is the one to report
			return nil, err
		}
		if err := srv.Close(); err != nil {
			return nil, err
		}
		res.env["data_fs"] = fsType(prep)
	}

	pu, ru, err := runPass(defs, s, prep, filepath.Join(dir, "untimed"), blobs, clk, false)
	if err != nil {
		return nil, err
	}
	if err := pu.srv.Close(); err != nil {
		return nil, err
	}
	pt, rt, err := runPass(defs, s, prep, filepath.Join(dir, "timed"), blobs, clk, true)
	if err != nil {
		return nil, err
	}
	for _, lt := range append(append(ru.measured, ru.readback...), append(rt.measured, rt.readback...)...) {
		res.attempted += lt.attempted
		res.failed += lt.failed
		res.problems = append(res.problems, lt.problems...)
	}
	for _, name := range liveCounters {
		if ru.counts[name] != rt.counts[name] {
			res.problems = append(res.problems, fmt.Sprintf("repeat check: %s is %d in the untimed pass and %d in the timed pass",
				name, ru.counts[name], rt.counts[name]))
		}
	}

	querySelf, extractProbe, perr := probeQueries(pt, s, rt, clk)
	if perr != nil {
		_ = pt.srv.Close() // the probe error is the one to report
		return nil, perr
	}
	res.problems = append(res.problems, gateInProcess(pt, s, rt)...)
	if err := pt.srv.Close(); err != nil {
		return nil, err
	}
	walOps, saves := pt.fs.snapshot()

	// Ingest-side figures come from the measured phase, the request class
	// of ingest_p50_ms and points_per_s; reads come from whichever phase
	// has them (dashboard: measured; ingest: read-back).
	lt := merge(rt.measured)
	all := merge(append(rt.measured, rt.readback...))
	perPoint := func(d time.Duration, unit float64) float64 {
		if lt.points == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / unit / float64(lt.points)
	}
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}

	// server and shard: self time and waiting around the covered calls.
	walByShard := map[int][]span{}
	var walWrite time.Duration
	var walBytes, appends int
	var fsyncUs []float64
	for _, op := range walOps {
		walByShard[op.shard] = append(walByShard[op.shard], op.sp)
		switch {
		case op.sp.Start < rt.phase.Start, op.sp.End > rt.phase.End:
		case op.sync:
			fsyncUs = append(fsyncUs, float64((op.sp.End-op.sp.Start).Nanoseconds())/1e3)
		case op.append:
			appends++
			walWrite += op.sp.End - op.sp.Start
			walBytes += op.bytes
		}
	}
	var selfUs, waitMs []float64
	for _, ir := range lt.ingests {
		covered := span{Start: ir.t1, End: ir.t3}
		selfUs = append(selfUs, float64(selfTime(span{Start: ir.t0, End: ir.t4}, []span{covered}).Nanoseconds())/1e3)
		engine := span{Start: ir.t2, End: ir.t3}
		logOwn := overlap(engine, walByShard[ir.shard])
		waitMs = append(waitMs, float64((engine.End-engine.Start-ir.apply-logOwn).Nanoseconds())/1e6)
	}
	var viewWaitMs []float64
	for _, q := range all.queries {
		viewWaitMs = append(viewWaitMs, float64((q.total-q.flush).Nanoseconds())/1e6-querySelf/1e3)
	}
	var ingestPoints int64
	for _, ir := range lt.ingests {
		ingestPoints += int64(ir.points)
	}

	res.set("server.ingest_self_us", median(selfUs), "us")
	res.set("server.query_self_us", querySelf, "us")
	res.set("stream.parse_ns_per_point", perPoint(lt.parse, 1), "ns/point")
	res.set("shard.ingest_wait_ms", median(waitMs), "ms")
	res.set("shard.view_wait_ms", median(viewWaitMs), "ms")
	reqsPerAppend := 0.0
	if appends > 0 {
		reqsPerAppend = float64(len(lt.ingests)) / float64(appends)
	}
	res.set("shard.reqs_per_append", reqsPerAppend, "ratio")
	walPerReq, walPerPoint := 0.0, 0.0
	if len(lt.ingests) > 0 {
		walPerReq = float64(walWrite.Nanoseconds()) / 1e3 / float64(len(lt.ingests))
	}
	if ingestPoints > 0 {
		walPerPoint = float64(walBytes) / float64(ingestPoints)
	}
	res.set("wal.write_us_per_req", walPerReq, "us")
	res.set("wal.fsync_us", median(fsyncUs), "us")
	res.set("wal.bytes_per_point", walPerPoint, "B")

	replayMs, loadMs, err := recoveryParts(w, prep, filepath.Join(dir, "replay"))
	if err != nil {
		return nil, err
	}
	res.set("wal.replay_ms", replayMs, "ms")
	res.set("checkpoint.load_ms", loadMs, "ms")
	var saveMs []float64
	lastSave := map[int]int{}
	for _, sv := range saves {
		saveMs = append(saveMs, float64((sv.sp.End-sv.sp.Start).Nanoseconds())/1e6)
		lastSave[sv.shard] = sv.bytes
	}
	ckptBytes := 0
	for _, b := range lastSave {
		ckptBytes += b
	}
	res.set("checkpoint.save_ms", median(saveMs), "ms")
	res.set("checkpoint.bytes", float64(ckptBytes), "B")

	evalsPerFlush := 0.0
	if len(all.flushes) > 0 {
		evalsPerFlush = float64(all.evals) / float64(len(all.flushes))
	}
	res.set("core.flush_ms", median(all.flushes), "ms")
	res.set("core.extract_us", extractProbe, "us")
	res.set("core.evals_per_flush", evalsPerFlush, "count")
	res.set("core.memo_hit_ratio", ratio(all.memoHits, all.memoMisses), "ratio")
	res.set("core.warm_hit_ratio", ratio(all.warmHits, all.warmFallbacks), "ratio")
	res.set("core.incr_fallback_ratio", ratio(all.incrFallbacks, all.incrHits), "ratio")
	res.set("core.restore_ms", mean(rt.restores), "ms")
	res.set("core.push_ns_per_point", perPoint(lt.core, 1), "ns/point")
	res.set("agglom.push_us_per_point", perPoint(lt.agg, 1e3), "us/point")
	var endpoints []float64
	for _, i := range s.Written {
		endpoints = append(endpoints, float64(rt.reps[i].Agg.StoredEndpoints()))
	}
	res.set("agglom.endpoints_per_stream", mean(endpoints), "count")
	res.set("quantile.insert_ns_per_point", perPoint(lt.gk, 1), "ns/point")
	res.set("vhist.push_ns_per_point", perPoint(lt.sed, 1), "ns/point")
	res.set("trace.overhead_frac", 1-rt.pps/ru.pps, "frac")

	counts := fixedCounts(s, rt, ckptBytes)
	res.problems = append(res.problems, repeatCheck(cfg, counts)...)
	res.env["fixed_counts_sha256"] = countsDigest(counts)
	res.note("fixed counts: %d values, sha256 %s (two runs of one seed must print the same)", len(counts), res.env["fixed_counts_sha256"])
	res.env["daemon_gomaxprocs"] = rt.shards
	res.note("in-process points_per_s: untimed %.1f, timed %.1f; measured phase: %d ingests, %d WAL appends, %d WAL fsyncs; %d fresh queries; %d checkpoints",
		ru.pps, rt.pps, len(lt.ingests), appends, len(fsyncUs), len(all.queries), len(saves))
	return res, nil
}

// merge sums client totals.
func merge(lts []*layerTotals) layerTotals {
	var out layerTotals
	for _, l := range lts {
		out.points += l.points
		out.parse += l.parse
		out.core += l.core
		out.agg += l.agg
		out.gk += l.gk
		out.sed += l.sed
		out.flushes = append(out.flushes, l.flushes...)
		out.evals += l.evals
		out.memoHits += l.memoHits
		out.memoMisses += l.memoMisses
		out.warmHits += l.warmHits
		out.warmFallbacks += l.warmFallbacks
		out.incrHits += l.incrHits
		out.incrFallbacks += l.incrFallbacks
		out.ingests = append(out.ingests, l.ingests...)
		out.queries = append(out.queries, l.queries...)
	}
	return out
}

// probeQueries times clean /query requests — the window is already
// flushed, so the callback only extracts — on each queried stream, and
// the replica's clean extraction. Their difference is the server's self
// time for a /query (both engine views are uncontended).
func probeQueries(p *passState, s *Script, pm *passResult, clk clock) (selfUs, extractUs float64, err error) {
	var serveUs, exUs []float64
	for _, i := range s.Queried {
		key := streamKey(i)
		for j := 0; j < probesPerQuery; j++ {
			t := clk.now()
			if err := serve(p.srv, http.MethodGet, "/v1/streams/"+key+"/query?lo=0&hi=1", nil, newRespRec(nil), nil); err != nil {
				return 0, 0, err
			}
			serveUs = append(serveUs, float64((clk.now()-t).Nanoseconds())/1e3)
			_, d := replicaHistogram(pm.reps[i], clk, nil)
			exUs = append(exUs, float64(d.Nanoseconds())/1e3)
		}
	}
	if len(serveUs) == 0 {
		return 0, 0, nil
	}
	return median(serveUs) - median(exUs), median(exUs), nil
}

// gateInProcess checks every stream's position and, on the written
// streams, that the replicas saw exactly the live state's work.
func gateInProcess(p *passState, s *Script, pm *passResult) []string {
	problems := checkSeen(handlerCall(p.srv), s)
	for _, i := range sampleStreams(s.Written, sseSamples) {
		var ag agglomReply
		if err := serve(p.srv, http.MethodGet, "/v1/streams/"+streamKey(i)+"/agglom", nil, newRespRec(nil), &ag); err != nil {
			problems = append(problems, err.Error())
			continue
		}
		if got := pm.reps[i].Agg.StoredEndpoints(); got != ag.Endpoints {
			problems = append(problems, fmt.Sprintf("%s: agglom replica holds %d endpoints, the live summary %d", streamKey(i), got, ag.Endpoints))
		}
	}
	return problems
}

// recoveryParts times checkpoint.Latest and WAL.ReplayKeyed on a copy of
// each shard stripe of the prepared dir (0, 0 for a memory-only
// workload).
func recoveryParts(w Workload, prep, dir string) (replayMs, loadMs float64, err error) {
	if !w.Durable {
		return 0, 0, nil
	}
	if err := copyDir(dir, prep); err != nil {
		return 0, 0, err
	}
	stripes, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil {
		return 0, 0, err
	}
	for _, sd := range stripes {
		t := time.Now()
		if _, _, err := checkpoint.Latest(faults.OS{}, sd); err != nil {
			return 0, 0, err
		}
		loadMs += float64(time.Since(t).Nanoseconds()) / 1e6
		lg, err := wal.Open(wal.Options{Dir: sd, Keyed: true})
		if err != nil {
			return 0, 0, err
		}
		t = time.Now()
		err = lg.ReplayKeyed(0, func(wal.KeyedRecord) error { return nil })
		replayMs += float64(time.Since(t).Nanoseconds()) / 1e6
		if cerr := lg.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return replayMs, loadMs, nil
}

// fixedCounts are the counts the script fixes: per written stream, the
// replica's core evals, memo hits and warm hits and its agglom endpoints;
// and the final checkpoint's bytes.
func fixedCounts(s *Script, pm *passResult, ckptBytes int) map[string]int64 {
	out := map[string]int64{"checkpoint.bytes": int64(ckptBytes)}
	for _, i := range s.Written {
		fw := pm.reps[i].FW
		evals, _ := fw.Evals()
		memo, _ := fw.MemoStats()
		warm, _ := fw.WarmStats()
		key := streamKey(i)
		out[key+".core.evals"] = evals
		out[key+".core.memo_hits"] = memo
		out[key+".core.warm_hits"] = warm
		out[key+".agglom.endpoints"] = int64(pm.reps[i].Agg.StoredEndpoints())
	}
	for k, v := range pm.counts {
		out["live."+k] = v
	}
	return out
}

// countsDigest hashes the fixed counts in key order.
func countsDigest(counts map[string]int64) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		_, _ = fmt.Fprintf(h, "%s=%d\n", k, counts[k])
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// repeatCheck compares this run's fixed counts with those an earlier
// traced run of the same workload, seed, size and sources stored in the
// checkout, and stores them when there are none yet.
func repeatCheck(cfg runConfig, counts map[string]int64) []string {
	dir := filepath.Join(cfg.work, "counts")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-sec%d-src%s.json", cfg.workload, cfg.seed, cfg.seconds, sourceDigest(cfg.root)))
	if data, err := os.ReadFile(path); err == nil {
		var prev map[string]int64
		if err := json.Unmarshal(data, &prev); err != nil {
			return []string{fmt.Sprintf("repeat check: %s: %v", path, err)}
		}
		var problems []string
		for k, v := range counts {
			if prev[k] != v {
				problems = append(problems, fmt.Sprintf("repeat check: %s is %d, an earlier run of this seed had %d", k, v, prev[k]))
			}
		}
		if len(prev) != len(counts) {
			problems = append(problems, fmt.Sprintf("repeat check: %d counts, an earlier run of this seed had %d", len(counts), len(prev)))
		}
		return problems
	}
	data, err := json.MarshalIndent(counts, "", " ")
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return []string{fmt.Sprintf("repeat check: storing counts: %v", err)}
	}
	return nil
}
