package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamhist/internal/faults"
	"streamhist/internal/leakcheck"
	"streamhist/internal/obs"
	"streamhist/internal/trace"
)

// The chaos soak runs the full daemon — ingest handlers, the sharded
// engine's loops, striped WALs, checkpoint loops, per-shard breakers and
// supervisors — under a seeded, randomized fault schedule with
// concurrent tenants, and checks the acknowledged-durability contract:
// every value acknowledged by a non-degraded 200 must survive a crash,
// per stream. Each seed flips a random subset of fault rules on and off
// (probabilistic WAL errors, ENOSPC at segment creation, checkpoint
// failures, torn writes, injected latency) while clients hammer their
// streams — one the reserved default stream, the rest tenant streams,
// all through /v1/streams/{key}/ingest; at the end the rules
// clear, the server must re-converge to healthy durable service, and a
// simulated crash plus parallel recovery must land at or past the last
// durably acknowledged position of every stream.

const (
	soakClients  = 3
	soakShards   = 3
	soakDuration = 150 * time.Millisecond
)

// soakKey maps a client to its stream: client 0 drives the reserved
// default stream, the rest their own tenant streams, so one soak covers
// the stream Open creates as well as streams the first ingest creates.
func soakKey(id int) string {
	if id == 0 {
		return DefaultStream
	}
	return fmt.Sprintf("tenant-%d", id)
}

func soakPath(id int) string {
	return "/v1/streams/" + soakKey(id) + "/ingest"
}

// soakIngest is do() without t.Fatalf, safe to call from client
// goroutines. It returns the status code, the degraded marker, and the
// acknowledged stream position (0 when the response is not a 200).
func soakIngest(s *Server, path, body string) (code int, degraded bool, seen int64) {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec.Code, false, 0
	}
	var resp struct {
		Degraded bool  `json:"degraded"`
		Seen     int64 `json:"seen"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return -1, false, 0
	}
	return rec.Code, resp.Degraded, resp.Seen
}

// soakRuleMenu is the pool of fault rules a seed's schedule draws from.
// The path filters match the striped layout too: every shard's WAL
// segment and checkpoint keeps its wal-/checkpoint- prefix under its
// shard directory.
func soakRuleMenu() []faults.Rule {
	return []faults.Rule{
		{Ops: faults.OpWrite | faults.OpSync, PathContains: "wal-", Prob: 0.7},
		{Ops: faults.OpCreate, PathContains: "wal-", Prob: 1, Err: faults.ErrNoSpace},
		{Ops: faults.OpAll, PathContains: "checkpoint-", Prob: 0.5},
		{Ops: faults.OpWrite, PathContains: "wal-", Prob: 0.5, Torn: true, ShortFrac: 0.5},
		{Ops: faults.OpWrite | faults.OpSync, Prob: 0.3, Latency: 500 * time.Microsecond},
	}
}

// dumpSoakDiagnostics writes the failing daemon's /metrics snapshot and
// Perfetto trace export into the directory named by the
// STREAMHIST_SOAK_DIAG environment variable, where CI uploads them as
// workflow artifacts. A no-op when the variable is unset, so local runs
// leave nothing behind.
func dumpSoakDiagnostics(t *testing.T, seed int64, s *Server) {
	t.Helper()
	dir := os.Getenv("STREAMHIST_SOAK_DIAG")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("diagnostics: %v", err)
		return
	}
	for _, d := range []struct{ path, file string }{
		{"/metrics", fmt.Sprintf("chaos-seed%02d-metrics.prom", seed)},
		{"/debug/trace/chrome", fmt.Sprintf("chaos-seed%02d-trace.json", seed)},
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, d.path, nil))
		if rec.Code != http.StatusOK {
			t.Logf("diagnostics: GET %s = %d", d.path, rec.Code)
			continue
		}
		out := filepath.Join(dir, d.file)
		if err := os.WriteFile(out, rec.Body.Bytes(), 0o644); err != nil {
			t.Logf("diagnostics: %v", err)
			continue
		}
		t.Logf("diagnostics: wrote %s", out)
	}
}

// runSoakSeed soaks one daemon lifetime under seed's fault schedule and
// returns whether any shard degraded at least once during it.
func runSoakSeed(t *testing.T, seed int64) (sawDegraded bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	chaos := faults.NewChaos(faults.OS{}, seed)
	reg := obs.NewRegistry()
	tr, err := trace.New(512)
	if err != nil {
		t.Fatal(err)
	}
	opts := resilientOptions(dir, chaos)
	opts.Shards = soakShards
	opts.SegmentBytes = 256 // force rotations into the schedule
	opts.CheckpointInterval = 5 * time.Millisecond
	opts.Metrics = reg
	opts.Trace = tr
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("seed %d: open: %v", seed, err)
	}
	// On failure, capture the soaked daemon's observability state for the
	// CI artifact upload. Runs after the Fatalf unwinds; /metrics and the
	// trace ring stay readable even once the engine has been aborted.
	defer func() {
		if t.Failed() {
			dumpSoakDiagnostics(t, seed, s)
		}
	}()

	var (
		// maxDurable[i]: highest position of client i's stream acked by a
		// non-degraded 200.
		maxDurable  [soakClients]atomic.Int64
		degraded200 atomic.Int64
		failed      atomic.Int64
		clientErr   atomic.Value // first unexpected status, if any
		wg          sync.WaitGroup
		stopClients = make(chan struct{})
	)
	durableAck := func(id int, seen int64) {
		for {
			cur := maxDurable[id].Load()
			if seen <= cur || maxDurable[id].CompareAndSwap(cur, seen) {
				return
			}
		}
	}
	for c := 0; c < soakClients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			path := soakPath(id)
			body := fmt.Sprintf("%d\n%d\n%d\n", id, id+1, id+2)
			for {
				select {
				case <-stopClients:
					return
				default:
				}
				code, deg, seen := soakIngest(s, path, body)
				switch {
				case code == http.StatusOK && !deg:
					durableAck(id, seen)
				case code == http.StatusOK:
					degraded200.Add(1)
				case code == http.StatusInternalServerError || code == http.StatusServiceUnavailable:
					failed.Add(1)
				default:
					clientErr.CompareAndSwap(nil, fmt.Sprintf("unexpected ingest status %d", code))
					return
				}
			}
		}(c)
	}

	// The chaos driver: flip a random subset of rules on, hold, clear,
	// breathe, repeat. Timing and subset choice come from the seed.
	menu := soakRuleMenu()
	deadline := time.Now().Add(soakDuration)
	for time.Now().Before(deadline) {
		n := 1 + rng.Intn(2)
		picks := make([]faults.Rule, 0, n)
		for _, i := range rng.Perm(len(menu))[:n] {
			picks = append(picks, menu[i])
		}
		chaos.SetRules(picks...)
		time.Sleep(time.Duration(2+rng.Intn(10)) * time.Millisecond)
		chaos.Clear()
		time.Sleep(time.Duration(1+rng.Intn(5)) * time.Millisecond)
	}
	chaos.Clear()

	close(stopClients)
	wg.Wait()
	if msg := clientErr.Load(); msg != nil {
		t.Fatalf("seed %d: %v", seed, msg)
	}

	// Re-convergence: with the faults gone the shard supervisors must
	// re-anchor and the daemon must serve durable, non-degraded acks on
	// every route family again.
	waitFor(t, fmt.Sprintf("seed %d re-convergence", seed), func() bool {
		for id := 0; id < soakClients; id++ {
			code, deg, seen := soakIngest(s, soakPath(id), "42\n")
			if code != http.StatusOK || deg {
				return false
			}
			durableAck(id, seen)
		}
		return true
	})
	sawDegraded = reg.Counter("streamhist_degraded_entries_total", "").Value() > 0

	// Crash: stop the shard loops, supervisors and checkpoint loops
	// without the graceful final checkpoint, then recover from disk.
	s.eng.Abort()
	var final [soakClients]int64
	for id := 0; id < soakClients; id++ {
		final[id] = s.eng.Seen(soakKey(id))
	}
	ropts := crashOptions(dir, faults.OS{})
	ropts.Shards = soakShards
	s2, err := Open(ropts)
	if err != nil {
		t.Fatalf("seed %d: recovery: %v", seed, err)
	}
	defer s2.Close()
	for id := 0; id < soakClients; id++ {
		got := s2.eng.Seen(soakKey(id))
		want := maxDurable[id].Load()
		if got < want {
			t.Fatalf("seed %d: durability violated for %s: recovered seen=%d < max durable ack %d (final in-memory %d, degraded acks %d, failures %d)",
				seed, soakKey(id), got, want, final[id], degraded200.Load(), failed.Load())
		}
		if got > final[id] {
			t.Fatalf("seed %d: %s recovered seen=%d exceeds everything ingested (%d)", seed, soakKey(id), got, final[id])
		}
	}
	for id := 0; id < soakClients; id++ {
		if code, deg, _ := soakIngest(s2, soakPath(id), "7\n"); code != http.StatusOK || deg {
			t.Fatalf("seed %d: %s ingest after recovery: code=%d degraded=%v", seed, soakKey(id), code, deg)
		}
	}
	t.Logf("seed %d: faults fired=%d, degraded acks=%d, failed=%d, degraded mode=%v",
		seed, chaos.Fired(), degraded200.Load(), failed.Load(), sawDegraded)
	return sawDegraded
}

func TestChaosSoak(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	before := leakcheck.Take()
	degradedSeeds := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		ok := t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			if runSoakSeed(t, seed) {
				degradedSeeds++
			}
		})
		if !ok {
			break // a durability violation; later seeds would only add noise
		}
	}
	if degradedSeeds == 0 {
		t.Error("no seed ever drove the server into degraded mode; the schedule is too gentle to mean anything")
	}
	t.Logf("%d/%d seeds exercised degraded mode", degradedSeeds, seeds)

	// No goroutine leaks: every soaked daemon's shard loops, supervisors
	// and checkpoint loops must have exited. The snapshot diff names the
	// offending stack instead of reporting a bare count.
	leakcheck.Check(t, before)
}
