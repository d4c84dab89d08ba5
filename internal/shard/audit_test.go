package shard

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamhist/internal/core"
	"streamhist/internal/quality"
	"streamhist/internal/trace"
)

func auditSeries(seed int64, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	batches := make([][]float64, n/8)
	for i := range batches {
		b := make([]float64, 8)
		for j := range b {
			b[j] = 100 + 50*rng.Float64()
		}
		batches[i] = b
	}
	return batches
}

// TestEngineAuditRuns: an audited engine runs passes as points land, and
// AuditStatus reports them; an unaudited engine reports ok=false.
func TestEngineAuditRuns(t *testing.T) {
	e := testEngine(t, Config{Shards: 2, Audit: &quality.Config{
		Interval: 64, Shadow: 256, Reservoir: 64, MinShadow: 16,
	}})
	for _, b := range auditSeries(1, 512) {
		if _, _, err := e.Ingest("tenant-a", 0, b); err != nil {
			t.Fatal(err)
		}
	}
	st, ok, err := e.AuditStatus("tenant-a")
	if err != nil || !ok {
		t.Fatalf("AuditStatus: ok=%v err=%v", ok, err)
	}
	if st.Audits == 0 || st.Queries == 0 {
		t.Fatalf("no audit passes after 512 points at interval 64: %+v", st)
	}
	if st.LastAudit == nil || st.LastAudit.Queries == 0 {
		t.Fatalf("last audit report empty: %+v", st.LastAudit)
	}
	if !e.AuditEnabled() {
		t.Fatal("AuditEnabled false on an audited engine")
	}

	snap := e.QualitySnapshot()
	if len(snap) != 1 || snap[0].Stream != "tenant-a" {
		t.Fatalf("quality snapshot %+v, want exactly tenant-a", snap)
	}

	if _, _, err := e.AuditStatus("nope"); err != ErrUnknownStream {
		t.Fatalf("unknown stream err %v", err)
	}

	plain := testEngine(t, Config{Shards: 2})
	if _, _, err := plain.Ingest("k", 0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := plain.AuditStatus("k"); ok {
		t.Fatal("unaudited engine reported an auditor")
	}
	if plain.AuditEnabled() {
		t.Fatal("AuditEnabled true without audit config")
	}
}

// TestEngineAuditDeterministicAcrossEngines: the same stream pushed into
// two identically-configured engines measures identical errors — the
// per-stream seed is derived from the key, not process state.
func TestEngineAuditDeterministicAcrossEngines(t *testing.T) {
	run := func() quality.Status {
		e := testEngine(t, Config{Shards: 2, Audit: &quality.Config{
			Interval: 64, Shadow: 256, Reservoir: 64, MinShadow: 16,
		}})
		for _, b := range auditSeries(3, 512) {
			if _, _, err := e.Ingest("tenant-d", 0, b); err != nil {
				t.Fatal(err)
			}
		}
		st, ok, err := e.AuditStatus("tenant-d")
		if err != nil || !ok {
			t.Fatalf("AuditStatus: ok=%v err=%v", ok, err)
		}
		return st
	}
	a, b := run(), run()
	if a.Audits != b.Audits || a.Queries != b.Queries || a.Breaches != b.Breaches {
		t.Fatalf("audit accounting diverged: %+v vs %+v", a, b)
	}
	if a.LastAudit.MaxRelErr != b.LastAudit.MaxRelErr {
		t.Fatalf("measured error diverged: %g vs %g", a.LastAudit.MaxRelErr, b.LastAudit.MaxRelErr)
	}
	for _, class := range quality.Classes {
		if a.LastAudit.Classes[class] != b.LastAudit.Classes[class] {
			t.Fatalf("class %s diverged: %+v vs %+v",
				class, a.LastAudit.Classes[class], b.LastAudit.Classes[class])
		}
	}
}

// TestSLOBreachCapture: a stream whose ε is far below what the auxiliary
// summaries can deliver must breach its SLO, emit EvSLOBreach, and write
// an slo_breach anomaly capture through the flight recorder.
func TestSLOBreachCapture(t *testing.T) {
	tr, err := trace.New(1024)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Threshold 0 disarms slow-rebuild capture but arms the directory for
	// explicit anomaly captures.
	tr.SetSlowCapture(dir, 0, 4)

	e := testEngine(t, Config{
		Shards: 1,
		Trace:  tr,
		// ε = 1e-6: the GK summary (ε=0.01) and the sampled shadow cannot
		// agree to a part per million, so panel queries breach by design.
		Factory: func(key string) (*State, error) {
			fw, ferr := core.New(512, 8, 1e-6)
			if ferr != nil {
				return nil, ferr
			}
			return NewState(fw)
		},
		Audit: &quality.Config{
			Interval: 64, Shadow: 256, Reservoir: 64, MinShadow: 16,
			SLOTarget: 0.99, SLOWindow: 32,
		},
	})
	for _, b := range auditSeries(5, 1024) {
		if _, _, err := e.Ingest("strict", 0, b); err != nil {
			t.Fatal(err)
		}
	}

	st, ok, err := e.AuditStatus("strict")
	if err != nil || !ok {
		t.Fatalf("AuditStatus: ok=%v err=%v", ok, err)
	}
	if !st.Breaching {
		t.Fatalf("SLO not breaching with eps=1e-6: %+v", st)
	}
	if st.SLOBreaches < 1 {
		t.Fatalf("no breach transitions recorded: %+v", st)
	}
	if st.BurnRate <= 1 {
		t.Fatalf("burn rate %g, want > 1 in breach", st.BurnRate)
	}

	var sawBreach, sawAudit bool
	for _, ev := range tr.Snapshot() {
		switch ev.Type {
		case trace.EvSLOBreach:
			sawBreach = true
		case trace.EvAudit:
			sawAudit = true
		}
	}
	if !sawAudit {
		t.Fatal("no EvAudit instants recorded")
	}
	if !sawBreach {
		t.Fatal("no EvSLOBreach instant recorded")
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var captured bool
	for _, ent := range ents {
		if !strings.HasSuffix(ent.Name(), ".json") {
			continue
		}
		blob, rerr := os.ReadFile(filepath.Join(dir, ent.Name()))
		if rerr != nil {
			t.Fatal(rerr)
		}
		var c trace.Capture
		if jerr := json.Unmarshal(blob, &c); jerr != nil {
			t.Fatalf("capture %s: %v", ent.Name(), jerr)
		}
		if c.Kind != "slo_breach" {
			continue
		}
		captured = true
		if c.Stats.Stream != "strict" {
			t.Fatalf("capture stream %q, want strict", c.Stats.Stream)
		}
		if c.Stats.SLOTarget != 0.99 || c.Stats.SLOCompliance >= 0.99 {
			t.Fatalf("capture SLO context %+v inconsistent with a breach", c.Stats)
		}
		if c.Stats.MeasuredRelErr <= 1e-6 {
			t.Fatalf("capture measured error %g not above eps", c.Stats.MeasuredRelErr)
		}
	}
	if !captured {
		t.Fatalf("no slo_breach capture written to %s (%d files)", dir, len(ents))
	}
}

// TestAuditSurvivesRecovery: recovery replays the WAL outside the shard
// loop, so the auditor's positional ring must realign on the first live
// batch instead of misattributing positions.
func TestAuditSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Shards: 2, DataDir: dir, SyncEveryAppend: true,
		Factory: testFactory(t),
		Audit: &quality.Config{
			Interval: 32, Shadow: 128, Reservoir: 32, MinShadow: 8,
		},
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range auditSeries(9, 128) {
		if _, _, err := e.Ingest("t", 0, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	// Live traffic after recovery: the auditor starts at ring position 0
	// while the stream is at 128; the first batch must realign, and audits
	// must resume.
	for _, b := range auditSeries(10, 128) {
		if _, _, err := e2.Ingest("t", 0, b); err != nil {
			t.Fatal(err)
		}
	}
	st, ok, err := e2.AuditStatus("t")
	if err != nil || !ok {
		t.Fatalf("AuditStatus after recovery: ok=%v err=%v", ok, err)
	}
	if st.Audits == 0 {
		t.Fatal("no audit passes after recovery")
	}
	if st.LastAudit.Seen != 256 {
		t.Fatalf("auditor position %d after recovery+live, want 256", st.LastAudit.Seen)
	}
}

// TestShardStatuses: per-shard health detail for /readyz.
func TestShardStatuses(t *testing.T) {
	e := testEngine(t, Config{Shards: 3})
	if _, _, err := e.Ingest("a", 0, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	sts := e.ShardStatuses()
	if len(sts) != 3 {
		t.Fatalf("%d shard statuses, want 3", len(sts))
	}
	total := 0
	for i, s := range sts {
		if s.ID != i {
			t.Fatalf("status %d has ID %d", i, s.ID)
		}
		if s.Degraded || s.Quarantined {
			t.Fatalf("fresh shard %d reports %+v", i, s)
		}
		if s.Breaker != "closed" {
			t.Fatalf("memory-only shard %d breaker %q, want closed", i, s.Breaker)
		}
		total += s.Streams
	}
	if total != 1 {
		t.Fatalf("statuses count %d streams, want 1", total)
	}
}

// TestAuditOverheadBudget holds the shadow audit to at most 5% of the
// per-point cost of the stream it audits: n=1024, B=12, eps=0.1 at the
// default growth factor, 64-point batches, a pass every 256 points. The
// audit's own work — ObserveBatch on every batch and, once per interval,
// the panel replay (Run) against the stream's summaries — is timed
// directly, not as the difference of an audited and an unaudited run.
// The base is an unaudited engine's ingest plus the histogram query a
// serving daemon answers once per interval. That query runs just before
// the panel, so the lazy rebuild it forces is billed to the base and not
// to the audit, which would otherwise force it.
func TestAuditOverheadBudget(t *testing.T) {
	const (
		budget   = 0.05
		rounds   = 4
		batches  = 64 // per round
		batchLen = 64
		interval = 256
	)
	e := testEngine(t, Config{Shards: 1, Factory: func(string) (*State, error) {
		fw, err := core.New(1024, 12, 0.1)
		if err != nil {
			return nil, err
		}
		return NewState(fw)
	}})
	aud := quality.NewAuditor(quality.Config{Interval: interval, Shadow: 1024}, 1)
	rng := rand.New(rand.NewSource(42))
	batch := make([]float64, batchLen)
	var minBase, minAudit time.Duration
	for r := 0; r <= rounds; r++ {
		var base, audit time.Duration
		for i := 0; i < batches; i++ {
			for j := range batch {
				batch[j] = 100 + 800*rng.Float64()
			}
			start := time.Now()
			seen, _, err := e.Ingest("s", 0, batch)
			base += time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			err = e.View("s", func(st *State) error {
				if (i+1)%(interval/batchLen) == 0 {
					start := time.Now()
					_, err := st.FW.Histogram()
					base += time.Since(start)
					if err != nil {
						return err
					}
				}
				start := time.Now()
				aud.ObserveBatch(batch, seen-batchLen)
				if aud.Due() {
					aud.Run(auditTarget{st: st}, nil, nil, 0)
				}
				audit += time.Since(start)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if r == 0 {
			continue // round 0 fills the window and the shadows
		}
		if minBase == 0 || base < minBase {
			minBase = base
		}
		if minAudit == 0 || audit < minAudit {
			minAudit = audit
		}
	}
	if got := aud.Status().Audits; got != (rounds+1)*batches*batchLen/interval {
		t.Fatalf("%d audit passes, want one per %d points", got, interval)
	}
	points := float64(batches * batchLen)
	frac := float64(minAudit) / float64(minBase)
	t.Logf("audit %.0f ns per point against %.0f ns (%.2f%%, budget %.0f%%)",
		float64(minAudit)/points, float64(minBase)/points, 100*frac, 100*budget)
	if frac > budget {
		t.Errorf("audit adds %.0f ns to a %.0f ns point (%.1f%%), budget %.0f%%",
			float64(minAudit)/points, float64(minBase)/points, 100*frac, 100*budget)
	}
}
