package main

import "strconv"

// Workloads. Both run streamhistd with its default flags (window 4096,
// B 16, eps = delta = 0.1, exact rebuild engine, metrics on, tracing and
// audit off) as a separate process on loopback, driven by two
// closed-loop clients over two keep-alive connections: each client waits
// for its reply before sending the next request, as an agent awaiting
// its ack or a dashboard awaiting its render does. Every run executes
// the same seeded, fixed-work script; --seconds only sizes that script
// (see the rates below), the run never stops on a clock. Values come
// from internal/datagen utilization traces, one generator per stream.
//
// ingest — bulk telemetry writers on a durable daemon: WAL and a
// checkpoint every second, so every run takes many, in a data dir inside
// the checkout. The WAL is not fsynced per append (-fsync=false): on a
// 2-core VM with a shared ext4 disk, per-append fsync swung ingest p90
// by +65% and read-back query p90 by +170% between runs of one seed, and
// a tmpfs data dir would write outside the checkout. Appends still take
// the group-commit write path, and checkpoints still fsync, off the
// request path. Set-up recovers 128 streams from a checkpoint the script
// placed during an untimed preparation. The measured phase POSTs
// 256-point batches round-robin over 16 hot streams (8 per client); a
// hot stream retires after 16 batches (4096 points) and the client's
// next stream takes its place, so every written stream ages by the same
// bounded amount (at --seconds 10 each client uses its 32 streams once;
// larger sizes wrap and age streams a second round). No reads run during
// the measured phase: reads interleaved with bulk writes are too few and
// too variable to time. A separate read-back phase afterwards (1-point
// write, then one fresh /query, per round) gives the query metrics of
// the durable daemon; it is not part of points_per_s.
//
// In both workloads every stream the clients touch lives on the daemon's
// shard 0 (see BuildScript): the two clients meet on one shard loop, so
// group commit and lock waits come from the script, not from how a
// seed's streams hash, and the loop never competes with HTTP, the
// generator or GC for its core. After set-up each run compares the
// server's per-shard stream counts on /readyz with that partition and
// fails if the server routes keys otherwise.
//
//	Why: the per-point summaries (agglom, quantile, vhist), parsing, the
//	WAL append, group commit and checkpoints carry the load, while
//	core only runs PushLazy. An ingest-path or agglom change shows here;
//	a rebuild-engine change should show no cost here.
//
// dashboard — live dashboards on the memory-only default daemon.
// Set-up seeds 128 full windows through POST /restore. In the measured
// phase each client repeats "POST 1 point to one of its 8 hot streams,
// then one fresh GET /query of that stream", so every read pays exactly
// one one-point-slide flush.
//
//	Why: core rebuild and extraction plus per-request server and shard
//	cost dominate; wal and checkpoint do no work and agglom sees one
//	point per request. A rebuild-engine or request-path change shows
//	here; a WAL or agglom change should show none.
//
// End-to-end metrics (trace 0, daemon process):
//
//	setup_s        daemon exec -> /readyz 200, plus the workload's seeding
//	               (ingest: recovery from the prepared dir; dashboard:
//	               /restore of 128 windows); median of setupRounds set-ups
//	points_per_s   acknowledged points / wall time of the measured phase
//	ingest_p50_ms, ingest_p90_ms   POST .../ingest round trip, measured phase
//	query_p50_ms, query_p90_ms     fresh GET .../query round trip (dashboard:
//	               measured phase; ingest: read-back phase)
//	rss_peak_mb    daemon VmHWM at the end of the run
//	sse_ratio      served /histogram SSE / vopt.Error on the benchmark's own
//	               copy of the window, mean over sampled streams
//
// Failed or refused requests are the result line's "failed" count; the
// correctness gate requires it to be 0.
//
// Per-layer metrics (trace 1, in-process replay of the same script) and
// the end-to-end metric each should move, on which workload:
//
//	server.ingest_self_us, server.query_self_us -> ingest_p50_ms,
//	    query_p50_ms (dashboard)
//	stream.parse_ns_per_point -> points_per_s (ingest; predicted ~0)
//	shard.ingest_wait_ms -> ingest_p90_ms (ingest, dashboard)
//	shard.view_wait_ms -> query_p90_ms (dashboard)
//	shard.reqs_per_append (requests per group-commit WAL append) ->
//	    ingest_p50_ms (ingest)
//	wal.write_us_per_req, wal.bytes_per_point -> ingest_p50_ms,
//	    points_per_s (ingest)
//	wal.fsync_us (WAL fsyncs: segment seals at checkpoint rotations, and
//	    every append when fsync is on) -> ingest_p90_ms (ingest)
//	wal.replay_ms, checkpoint.load_ms -> setup_s (ingest)
//	checkpoint.save_ms, checkpoint.bytes -> ingest_p90_ms (ingest; the
//	    encode holds the shard lock)
//	core.flush_ms, core.extract_us -> query_p50_ms (dashboard)
//	core.evals_per_flush, core.memo_hit_ratio, core.warm_hit_ratio,
//	core.incr_fallback_ratio -> query_p50_ms, sse_ratio (dashboard)
//	core.restore_ms -> setup_s (both)
//	core.push_ns_per_point -> points_per_s (ingest)
//	agglom.push_us_per_point, agglom.endpoints_per_stream -> points_per_s,
//	    ingest_p50_ms, rss_peak_mb (ingest)
//	quantile.insert_ns_per_point, vhist.push_ns_per_point -> points_per_s
//	    (ingest)
//	trace.overhead_frac: 1 - traced / untraced in-process points_per_s

// Workload is one benchmark traffic mix.
type Workload struct {
	Name string
	// Durable runs the daemon with a data dir and a short checkpoint
	// interval; otherwise it is memory-only.
	Durable bool
	// BulkBatch is the points per measured-phase ingest request; 1 means
	// the write/fresh-read loop of the dashboard.
	BulkBatch int
	// Rate sizes the fixed script from --seconds: measured-phase requests
	// per second per client (ingest: batches; dashboard: write/read pairs),
	// calibrated on a 2-core VM so a run measures about --seconds.
	Rate float64
	// ReadbackRate sizes the ingest read-back phase: write/read pairs per
	// second of --seconds, per client.
	ReadbackRate float64
}

const (
	numStreams     = 128 // streams placed by set-up
	clients        = 2   // closed-loop clients (one keep-alive connection each)
	hotPerClient   = 8   // hot streams per client at any moment
	retireBatches  = 16  // ingest: batches a hot stream takes before it retires
	setupRounds    = 7   // set-ups per run; setup_s is their median
	sseSamples     = 8   // streams whose SSE is checked against vopt.Error
	ckptInterval   = "1s"
	walFsync       = false // see the ingest workload above
	probesPerQuery = 25    // traced run: clean /query probes per hot stream
)

var workloads = map[string]Workload{
	"ingest":    {Name: "ingest", Durable: true, BulkBatch: 256, Rate: 50, ReadbackRate: 50},
	"dashboard": {Name: "dashboard", BulkBatch: 1, Rate: 270},
}

// daemonArgs are the flags a workload adds to the daemon's defaults.
func daemonArgs(w Workload, dataDir string) []string {
	if !w.Durable {
		return nil
	}
	return []string{"-data-dir", dataDir, "-checkpoint-interval", ckptInterval, "-fsync=" + strconv.FormatBool(walFsync)}
}
