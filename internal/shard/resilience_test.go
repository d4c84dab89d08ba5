package shard

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"streamhist/internal/checkpoint"
	"streamhist/internal/faults"
	"streamhist/internal/obs"
)

// transitions reads the labeled breaker transition counter for one edge.
func transitions(reg *obs.Registry, from, to breakerState) int64 {
	return reg.LabeledCounter("streamhist_breaker_transitions_total",
		`from="`+from.String()+`",to="`+to.String()+`"`, "").Value()
}

// waitUntil polls cond for up to 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// keyOn returns a stream key that routes to shard id.
func keyOn(t *testing.T, e *Engine, id int) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if key := fmt.Sprintf("k%d", i); e.ShardFor(key) == id {
			return key
		}
	}
	t.Fatalf("no key routes to shard %d", id)
	return ""
}

// TestAppendFailuresDegradeAtThreshold: BreakerThreshold-1 consecutive
// failed appends are errors and leave the shard healthy; the next one
// opens the breaker, once, and its batch is acknowledged degraded.
func TestAppendFailuresDegradeAtThreshold(t *testing.T) {
	chaos := faults.NewChaos(faults.OS{}, 1)
	reg := obs.NewRegistry()
	e := testEngine(t, Config{Shards: 1, DataDir: t.TempDir(), FS: chaos, Metrics: reg,
		BreakerThreshold: 3, BreakerBackoff: time.Hour})
	t.Cleanup(chaos.Clear)
	chaos.SetRules(faults.Rule{Ops: faults.OpWrite, PathContains: "wal-", Prob: 1})
	for i := 0; i < 2; i++ {
		if _, degraded, err := e.Ingest("a", 0, []float64{1}); err == nil || degraded {
			t.Fatalf("failed append %d: degraded=%v err=%v, want an error", i+1, degraded, err)
		}
		if e.Degraded() {
			t.Fatalf("degraded after %d failed appends, threshold 3", i+1)
		}
	}
	if _, degraded, err := e.Ingest("a", 0, []float64{1}); err != nil || !degraded {
		t.Fatalf("third failed append: degraded=%v err=%v, want a degraded acknowledgment", degraded, err)
	}
	if got := e.ShardStatuses()[0].Breaker; got != "open" {
		t.Errorf("breaker %q after the threshold, want open", got)
	}
	if got := transitions(reg, brClosed, brOpen); got != 1 {
		t.Errorf("%d closed->open transitions, want 1", got)
	}
	if got := reg.Gauge("streamhist_breaker_state", "").Value(); got != float64(brOpen) {
		t.Errorf("breaker gauge %v, want %v", got, float64(brOpen))
	}
}

// TestAppendSuccessResetsFailureCount: a successful append between two
// runs of failures shorter than the threshold keeps the shard healthy.
func TestAppendSuccessResetsFailureCount(t *testing.T) {
	chaos := faults.NewChaos(faults.OS{}, 1)
	e := testEngine(t, Config{Shards: 1, DataDir: t.TempDir(), FS: chaos,
		BreakerThreshold: 3, BreakerBackoff: time.Hour})
	t.Cleanup(chaos.Clear)
	fail := faults.Rule{Ops: faults.OpWrite, PathContains: "wal-", Prob: 1}
	for run := 0; run < 2; run++ {
		chaos.SetRules(fail)
		for i := 0; i < 2; i++ {
			if _, _, err := e.Ingest("a", 0, []float64{1}); err == nil {
				t.Fatalf("run %d: append %d succeeded under the fault", run, i+1)
			}
		}
		chaos.Clear()
		if _, degraded, err := e.Ingest("a", 0, []float64{1}); err != nil || degraded {
			t.Fatalf("run %d: healthy append: degraded=%v err=%v", run, degraded, err)
		}
	}
	if e.Degraded() {
		t.Fatal("two failures, a success and two failures degraded the shard at threshold 3")
	}
}

// TestProbeTransitions: a degraded shard whose first probe fails and
// second succeeds walks the breaker open -> half_open -> open ->
// half_open -> closed, re-anchoring once.
func TestProbeTransitions(t *testing.T) {
	chaos := faults.NewChaos(faults.OS{}, 1)
	reg := obs.NewRegistry()
	e := testEngine(t, Config{Shards: 1, DataDir: t.TempDir(), FS: chaos, Metrics: reg,
		BreakerThreshold: 1, BreakerBackoff: 2 * time.Millisecond})
	chaos.SetRules(
		faults.Rule{Ops: faults.OpWrite, PathContains: "wal-", Prob: 1, Count: 1},
		faults.Rule{Ops: faults.OpCreate, PathContains: ".probe", Prob: 1, Count: 1},
	)
	if _, degraded, err := e.Ingest("a", 0, []float64{1}); err != nil || !degraded {
		t.Fatalf("failed append at threshold 1: degraded=%v err=%v", degraded, err)
	}
	waitUntil(t, "re-anchor", func() bool { return !e.Degraded() })
	for _, tc := range []struct {
		from, to breakerState
		want     int64
	}{
		{brClosed, brOpen, 1},
		{brOpen, brHalfOpen, 2},
		{brHalfOpen, brOpen, 1},
		{brHalfOpen, brClosed, 1},
	} {
		if got := transitions(reg, tc.from, tc.to); got != tc.want {
			t.Errorf("%v->%v transitions %d, want %d", tc.from, tc.to, got, tc.want)
		}
	}
	if got := reg.Counter("streamhist_reanchors_total", "").Value(); got != 1 {
		t.Errorf("%d re-anchors, want 1", got)
	}
	if got := reg.LabeledGauge("streamhist_shard_breaker_state", shardLabel(0), "").Value(); got != float64(brClosed) {
		t.Errorf("shard breaker gauge %v after the re-anchor, want closed", got)
	}
}

// TestBackoff: the wait doubles per failure from base, stops at limit,
// and stays within ±10% of that.
func TestBackoff(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		base, limit time.Duration
		k           int
		want        time.Duration
	}{
		{100 * ms, 30 * time.Second, 0, 100 * ms},
		{100 * ms, 30 * time.Second, 1, 200 * ms},
		{100 * ms, 30 * time.Second, 3, 800 * ms},
		{100 * ms, 30 * time.Second, 9, 30 * time.Second},
		{100 * ms, 30 * time.Second, 1000, 30 * time.Second},
		{time.Second, 8 * time.Second, 2, 4 * time.Second},
		{time.Second, 8 * time.Second, 3, 8 * time.Second},
		{time.Second, 8 * time.Second, 4, 8 * time.Second},
		{50 * ms, 50 * ms, 2, 50 * ms},
	} {
		lo, hi := tc.want*9/10, tc.want*11/10
		for i := 0; i < 200; i++ {
			if d := backoff(tc.base, tc.limit, tc.k); d < lo || d > hi {
				t.Fatalf("backoff(%v, %v, %d) = %v, want within [%v, %v]", tc.base, tc.limit, tc.k, d, lo, hi)
			}
		}
	}
}

// TestQuarantinedShardNotReanchored: a degraded shard that a panic then
// quarantines persists nothing once the disk heals. A re-anchor would
// write the suspect state as a checkpoint covering the whole log and
// reset the log, and a restart, or a later self-restore, would load it.
func TestQuarantinedShardNotReanchored(t *testing.T) {
	dir := t.TempDir()
	chaos := faults.NewChaos(faults.OS{}, 1)
	reg := obs.NewRegistry()
	e := testEngine(t, Config{Shards: 1, DataDir: dir, FS: chaos, Metrics: reg,
		BreakerThreshold: 1, BreakerBackoff: 2 * time.Millisecond, BreakerMaxBackoff: 4 * time.Millisecond})
	// Appends and disk probes fail alike until the fault clears.
	chaos.SetRules(faults.Rule{Ops: faults.OpCreate | faults.OpWrite | faults.OpSync, Prob: 1})
	if _, degraded, err := e.Ingest("a", 0, []float64{1, 2, 3}); err != nil || !degraded {
		t.Fatalf("failed append at threshold 1: degraded=%v err=%v", degraded, err)
	}
	func() {
		defer func() { _ = recover() }()
		_ = e.View("a", func(*State) error { panic("view boom") })
	}()
	if !e.Quarantined() {
		t.Fatal("a panic under a stream lock did not quarantine the shard")
	}
	chaos.Clear()
	// No event marks a skipped probe; 300ms spans dozens of 2-4ms probe
	// backoffs.
	time.Sleep(300 * time.Millisecond)
	if got := reg.Counter("streamhist_reanchors_total", "").Value(); got != 0 {
		t.Errorf("quarantined shard re-anchored %d times", got)
	}
	if blob, seen, err := checkpoint.Latest(nil, shardDir(dir, 0)); err != nil || blob != nil {
		t.Errorf("quarantined shard wrote a checkpoint: %d bytes at seen=%d (err %v)", len(blob), seen, err)
	}
	if !e.Degraded() {
		t.Error("quarantined shard left degraded mode without a re-anchor")
	}
	if _, _, err := e.Ingest("a", 0, []float64{4}); !errors.Is(err, ErrQuarantined) {
		t.Errorf("ingest on the quarantined shard: err = %v, want ErrQuarantined", err)
	}
}

// TestBreakerGaugeShowsHighestShard: the unlabeled breaker gauge reads
// the highest state over the shards, so a shard that heals does not
// hide one still waiting out its probe backoff.
func TestBreakerGaugeShowsHighestShard(t *testing.T) {
	chaos := faults.NewChaos(faults.OS{}, 1)
	reg := obs.NewRegistry()
	e := testEngine(t, Config{Shards: 2, DataDir: t.TempDir(), FS: chaos, Metrics: reg,
		BreakerThreshold: 1, BreakerBackoff: 50 * time.Millisecond})
	t.Cleanup(chaos.Clear)
	sick := func(id int) faults.Rule {
		return faults.Rule{Ops: faults.OpCreate | faults.OpWrite | faults.OpSync, PathContains: shardDir("", id), Prob: 1}
	}
	// Shard 1 degrades and fails its first probe, so its next one is
	// about 100ms away. Shard 0 degrades then and heals on its first
	// probe, about 50ms later, halfway between shard 1's probes.
	chaos.SetRules(sick(1))
	if _, degraded, err := e.Ingest(keyOn(t, e, 1), 0, []float64{1}); err != nil || !degraded {
		t.Fatalf("shard 1 append: degraded=%v err=%v", degraded, err)
	}
	probeFailures := reg.Counter("streamhist_recovery_probe_failures_total", "")
	waitUntil(t, "shard 1's first failed probe", func() bool { return probeFailures.Value() >= 1 })
	chaos.SetRules(sick(1), sick(0))
	if _, degraded, err := e.Ingest(keyOn(t, e, 0), 0, []float64{1}); err != nil || !degraded {
		t.Fatalf("shard 0 append: degraded=%v err=%v", degraded, err)
	}
	chaos.SetRules(sick(1))
	waitUntil(t, "shard 0's re-anchor", func() bool { return !e.ShardStatuses()[0].Degraded })
	if st := e.ShardStatuses()[1]; !st.Degraded {
		t.Fatalf("shard 1 healed under its fault: %+v", st)
	}
	if got := reg.Gauge("streamhist_breaker_state", "").Value(); got < float64(brOpen) {
		t.Errorf("breaker gauge %v while shard 1 is degraded, want at least %v", got, float64(brOpen))
	}
}
