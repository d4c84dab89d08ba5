package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"streamhist/internal/core"
)

// clientLog is what one closed-loop client observed.
type clientLog struct {
	ingestMs, queryMs []float64
	points            int64
	attempted, failed int
	mismatches        []string
	lastQuery         map[int]queryObs // stream -> its last query
}

type queryObs struct {
	lo, hi   int
	estimate float64
}

func (l *clientLog) mismatch(format string, args ...any) {
	if len(l.mismatches) < 10 {
		l.mismatches = append(l.mismatches, fmt.Sprintf(format, args...))
	} else {
		l.mismatches = append(l.mismatches[:10], "...")
	}
}

// windowBlobs snapshots each stream's initial window with the daemon's
// default window configuration, ready for POST /restore.
func windowBlobs(s *Script, defs daemonDefaults) ([][]byte, error) {
	blobs := make([][]byte, len(s.Init))
	for i, win := range s.Init {
		fw, err := core.NewWithDelta(s.Window, defs.int("buckets"), defs.float("eps"), effectiveDelta(defs))
		if err != nil {
			return nil, err
		}
		for _, v := range win {
			fw.PushLazy(v)
		}
		if blobs[i], err = fw.MarshalBinary(); err != nil {
			return nil, err
		}
	}
	return blobs, nil
}

// runOps drives one client's requests against base in order.
func runOps(c *http.Client, base string, ops []Op, log *clientLog) {
	for _, op := range ops {
		key := streamKey(op.Stream)
		log.attempted++
		start := time.Now()
		switch op.Kind {
		case opIngest:
			var r ingestReply
			err := httpDo(c, http.MethodPost, base+"/v1/streams/"+key+"/ingest", op.Body, &r)
			ms := msSince(start)
			if err != nil {
				log.failed++
				log.mismatch("%v", err)
				continue
			}
			log.ingestMs = append(log.ingestMs, ms)
			log.points += int64(r.Ingested)
			if r.Seen != op.Seen || r.Ingested != len(op.Values) || r.Degraded {
				log.mismatch("%s: ack seen=%d ingested=%d degraded=%v, script expects seen=%d ingested=%d",
					key, r.Seen, r.Ingested, r.Degraded, op.Seen, len(op.Values))
			}
		case opQuery:
			var r queryReply
			url := base + "/v1/streams/" + key + "/query?lo=" + strconv.Itoa(op.Lo) + "&hi=" + strconv.Itoa(op.Hi)
			err := httpDo(c, http.MethodGet, url, nil, &r)
			ms := msSince(start)
			if err != nil {
				log.failed++
				log.mismatch("%v", err)
				continue
			}
			log.queryMs = append(log.queryMs, ms)
			log.lastQuery[op.Stream] = queryObs{lo: op.Lo, hi: op.Hi, estimate: r.Estimate}
		}
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// runPhase runs every client's ops concurrently and returns the wall time.
func runPhase(c *http.Client, base string, ops [clients][]Op, logs []*clientLog) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runOps(c, base, ops[i], logs[i])
		}(i)
	}
	wg.Wait()
	return time.Since(start)
}

// copyDir copies a directory tree of regular files.
func copyDir(dst, src string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path) // path is under src by construction
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// call sends one request to the system under test — the daemon over
// HTTP or the in-process server — and decodes a 200 JSON reply into out
// (nil discards it).
type call func(method, path string, body []byte, out any) error

func daemonCall(c *http.Client, base string) call {
	return func(method, path string, body []byte, out any) error {
		return httpDo(c, method, base+path, body, out)
	}
}

// restoreAll seeds every stream's window through POST /restore.
func restoreAll(do call, blobs [][]byte) error {
	for i, blob := range blobs {
		if err := do(http.MethodPost, "/v1/streams/"+streamKey(i)+"/restore", blob, nil); err != nil {
			return err
		}
	}
	return nil
}

// checkSeen compares every stream's /stats position with the script's.
func checkSeen(do call, s *Script) []string {
	var problems []string
	for i := range s.Init {
		var st statsReply
		if err := do(http.MethodGet, "/v1/streams/"+streamKey(i)+"/stats", nil, &st); err != nil {
			problems = append(problems, err.Error())
			continue
		}
		if want := expectedSeen(s, i); st.Seen != want {
			problems = append(problems, fmt.Sprintf("%s: /stats seen %d, script expects %d", streamKey(i), st.Seen, want))
		}
	}
	return problems
}

// runE2E is the untraced run: streamhistd as a separate process, set up
// setupRounds times, then the measured phase and the correctness gate.
func runE2E(cfg runConfig, s *Script, defs daemonDefaults) (*result, error) {
	w := s.Workload
	dir := filepath.Join(cfg.work, fmt.Sprintf("run-%s-%d", w.Name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	blobs, err := windowBlobs(s, defs)
	if err != nil {
		return nil, err
	}
	c := newClient(clients)
	defer c.CloseIdleConnections()
	res := newResult()
	res.env["data_fs"] = "none (memory-only)"

	prep := filepath.Join(dir, "prep")
	if w.Durable {
		// Untimed preparation: place the 128 windows in a checkpoint.
		d, err := startDaemon(cfg.daemon, daemonArgs(w, prep), filepath.Join(dir, "prep.log"))
		if err != nil {
			return nil, err
		}
		err = d.waitReady(c, 60*time.Second)
		if err == nil {
			err = restoreAll(daemonCall(c, d.base), blobs)
		}
		if err != nil {
			d.kill()
			return nil, fmt.Errorf("preparing the data dir: %w", err)
		}
		if err := d.stop(); err != nil {
			return nil, fmt.Errorf("preparing the data dir: %w", err)
		}
		res.env["data_fs"] = fsType(prep)
	}

	var d *daemon
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	var setups []float64
	for r := 0; r < setupRounds; r++ {
		if d != nil {
			d.kill()
			d = nil
		}
		data := filepath.Join(dir, fmt.Sprintf("data-%d", r))
		if w.Durable {
			if err := copyDir(data, prep); err != nil {
				return nil, err
			}
		}
		c.CloseIdleConnections()
		start := time.Now()
		d, err = startDaemon(cfg.daemon, daemonArgs(w, data), filepath.Join(dir, fmt.Sprintf("daemon-%d.log", r)))
		if err != nil {
			return nil, err
		}
		if err := d.waitReady(c, 60*time.Second); err != nil {
			return nil, err
		}
		if !w.Durable {
			if err := restoreAll(daemonCall(c, d.base), blobs); err != nil {
				return nil, fmt.Errorf("seeding: %w", err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if err := checkRouting(daemonCall(c, d.base), s); err != nil {
		return nil, err
	}
	res.env["daemon_gomaxprocs"] = s.Shards

	// Open both keep-alive connections before timing.
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = httpDo(c, http.MethodGet, d.base+"/healthz", nil, nil) // warm-up only
		}()
	}
	wg.Wait()

	logs := make([]*clientLog, clients)
	rlogs := make([]*clientLog, clients)
	for i := range logs {
		logs[i] = &clientLog{lastQuery: map[int]queryObs{}}
		rlogs[i] = &clientLog{lastQuery: logs[i].lastQuery}
	}
	wall := runPhase(c, d.base, s.Measured, logs)
	runPhase(c, d.base, s.Readback, rlogs)

	var ingestMs, queryMs []float64
	var points int64
	lastQuery := map[int]queryObs{}
	for i := range logs {
		for _, l := range []*clientLog{logs[i], rlogs[i]} {
			res.attempted += l.attempted
			res.failed += l.failed
			res.problems = append(res.problems, l.mismatches...)
			queryMs = append(queryMs, l.queryMs...)
		}
		ingestMs = append(ingestMs, logs[i].ingestMs...)
		points += logs[i].points
		for k, v := range logs[i].lastQuery {
			lastQuery[k] = v
		}
	}

	res.problems = append(res.problems, gateDaemon(c, d.base, s, defs, lastQuery, res)...)
	rss, err := d.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		res.problems = append(res.problems, err.Error())
	}
	d = nil

	res.set("setup_s", median(setups), "s")
	res.set("points_per_s", float64(points)/wall.Seconds(), "1/s")
	res.set("ingest_p50_ms", percentile(ingestMs, 50), "ms")
	res.set("ingest_p90_ms", percentile(ingestMs, 90), "ms")
	res.set("query_p50_ms", percentile(queryMs, 50), "ms")
	res.set("query_p90_ms", percentile(queryMs, 90), "ms")
	res.set("rss_peak_mb", rss, "MiB")
	res.note("samples: %d ingests, %d fresh queries; p99 ingest %.3f ms, p99 query %.3f ms (p99 is not a metric)",
		len(ingestMs), len(queryMs), percentile(ingestMs, 99), percentile(queryMs, 99))
	res.note("measured phase: %d points in %.3f s; setups %v s", points, wall.Seconds(), setups)
	return res, nil
}

// gateDaemon is the correctness gate after the measured phase: stream
// positions, query/histogram agreement and the SSE bound. It records
// sse_ratio and returns the problems found.
func gateDaemon(c *http.Client, base string, s *Script, defs daemonDefaults, lastQuery map[int]queryObs, res *result) []string {
	problems := checkSeen(daemonCall(c, base), s)
	hist := func(i int) (histJSON, error) {
		var h histJSON
		err := httpDo(c, http.MethodGet, base+"/v1/streams/"+streamKey(i)+"/histogram", nil, &h)
		return h, err
	}
	for i, q := range lastQuery {
		h, err := hist(i)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		if want := rangeEstimate(h.Buckets, q.lo, q.hi); !sameFloat(q.estimate, want) {
			problems = append(problems, fmt.Sprintf("%s: /query [%d,%d] = %g, /histogram buckets give %g",
				streamKey(i), q.lo, q.hi, q.estimate, want))
		}
	}
	sampled := sampleStreams(s.Written, sseSamples)
	hists := make([]histJSON, len(sampled))
	for j, i := range sampled {
		h, err := hist(i)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		if want := expectedSeen(s, i) - int64(s.Window); h.WindowStart != want {
			problems = append(problems, fmt.Sprintf("%s: windowStart %d, script expects %d", streamKey(i), h.WindowStart, want))
		}
		hists[j] = h
	}
	// vopt.Error is O(n^2 B); split the sampled streams over the cores.
	ratios := make([]float64, len(sampled))
	errs := make([]error, len(sampled))
	var wg sync.WaitGroup
	for k := 0; k < runtime.NumCPU(); k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := k; j < len(sampled); j += runtime.NumCPU() {
				ratios[j], errs[j] = sseCheck(hists[j], s.Final[sampled[j]], defs.int("buckets"), effectiveDelta(defs), defs.bool("incremental"))
			}
		}(k)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", streamKey(sampled[j]), err))
		}
	}
	res.set("sse_ratio", mean(ratios), "ratio")
	return problems
}

// effectiveDelta applies the daemon's "-delta 0 means eps" rule.
func effectiveDelta(defs daemonDefaults) float64 {
	if d := defs.float("delta"); d != 0 {
		return d
	}
	return defs.float("eps")
}

// expectedSeen is stream i's position after every scripted write.
func expectedSeen(s *Script, i int) int64 {
	seen := int64(s.Window)
	for _, phase := range [][clients][]Op{s.Measured, s.Readback} {
		for c := range phase {
			for _, op := range phase[c] {
				if op.Kind == opIngest && op.Stream == i {
					seen = op.Seen
				}
			}
		}
	}
	return seen
}

// checkRouting compares the server's shards, as /readyz lists them,
// with the script's partition: the shard count (the daemon sizes it by
// its GOMAXPROCS when -shards is left at 0) and each shard's stream
// count against where shardOf puts the set-up streams and "default".
// The script puts every hot stream on shard 0 through shardOf, a copy
// of the engine's key routing; a server that routes keys otherwise
// would spread the work differently, so the run fails rather than
// measure other work.
func checkRouting(do call, s *Script) error {
	var r struct {
		Shards []struct {
			ID      int `json:"id"`
			Streams int `json:"streams"`
		} `json:"shards"`
	}
	if err := do(http.MethodGet, "/readyz", nil, &r); err != nil {
		return err
	}
	if len(r.Shards) != s.Shards {
		return fmt.Errorf("the server runs %d shards, the script was partitioned for %d", len(r.Shards), s.Shards)
	}
	want := make([]int, s.Shards)
	want[shardOf("default", s.Shards)]++
	for i := range s.Init {
		want[shardOf(streamKey(i), s.Shards)]++
	}
	for i, sh := range r.Shards {
		if sh.ID != i || sh.Streams != want[i] {
			return fmt.Errorf("routing check: shard %d of /readyz (id %d) holds %d streams, the script's copy of the key routing puts %d there",
				i, sh.ID, sh.Streams, want[i])
		}
	}
	return nil
}
