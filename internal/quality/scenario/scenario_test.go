package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestMatrixShape pins the matrix contract TestMatrixBudgets relies on:
// at least five named scenarios, unique stable names, full accuracy
// contracts, and generator recipes that reproduce their streams.
func TestMatrixShape(t *testing.T) {
	m := Matrix()
	if len(m) < 5 {
		t.Fatalf("matrix has %d scenarios, need >= 5", len(m))
	}
	seen := map[string]bool{}
	for _, sc := range m {
		if sc.Name == "" || seen[sc.Name] {
			t.Errorf("scenario name %q empty or duplicated", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Points <= 0 || sc.Batch <= 0 || sc.Window <= 0 || sc.Buckets <= 0 || sc.Eps <= 0 {
			t.Errorf("%s: incomplete configuration %+v", sc.Name, sc)
		}
		if sc.MaxErrBudget <= 0 || sc.MinCompliance <= 0 || sc.MinCompliance > 1 {
			t.Errorf("%s: incomplete accuracy contract (budget %g, compliance floor %g)",
				sc.Name, sc.MaxErrBudget, sc.MinCompliance)
		}
		// The generator must be deterministic: two fresh instances
		// produce the same prefix.
		a, b := sc.Gen(), sc.Gen()
		for i := 0; i < 256; i++ {
			if av, bv := a.Next(), b.Next(); av != bv {
				t.Errorf("%s: generator not reproducible at %d: %g vs %g", sc.Name, i, av, bv)
				break
			}
		}
	}
	for _, want := range []string{"diurnal", "bursty", "sawtooth", "regime-drift", "support-skew"} {
		if !seen[want] {
			t.Errorf("matrix missing the %q scenario", want)
		}
	}
}

// TestMatrixBudgets is the accuracy gate. It replays every scenario in
// full through the daemon with the shadow auditor on and fails, naming
// the scenario, if its audited max relative error exceeds MaxErrBudget
// or its final SLO compliance falls below MinCompliance. The replays are
// seeded, so the measured errors repeat bit for bit. With
// STREAMHIST_SOAK_DIAG set, a breached scenario leaves its /metrics
// snapshot and Perfetto trace export in that directory.
func TestMatrixBudgets(t *testing.T) {
	m := Matrix()
	results, err := RunMatrix(RunConfig{DiagDir: os.Getenv("STREAMHIST_SOAK_DIAG")})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(m) {
		t.Fatalf("%d results for %d scenarios", len(results), len(m))
	}
	for i, res := range results {
		sc := m[i]
		last := res.Trajectory[len(res.Trajectory)-1]
		t.Logf("%-20s worst rel err %.4f (budget %.2f), final compliance %.3f (floor %.2f)",
			sc.Name, res.WorstRelErr, sc.MaxErrBudget, last.Compliance, sc.MinCompliance)
		if res.Breached {
			t.Errorf("scenario %s: %s", sc.Name, res.BreachReason)
		}
	}
}

func TestByName(t *testing.T) {
	sc, err := ByName("diurnal")
	if err != nil || sc.Name != "diurnal" {
		t.Fatalf("ByName(diurnal) = %+v, %v", sc.Name, err)
	}
	if _, err := ByName("no-such"); err == nil {
		t.Fatal("ByName accepted an unknown scenario")
	}
}

// TestRunDeterministic replays a shortened diurnal scenario twice
// through two fresh daemons and requires bit-identical trajectories —
// the property that lets TestMatrixBudgets hold fixed budgets.
func TestRunDeterministic(t *testing.T) {
	sc, err := ByName("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	sc.Points = 2048
	cfg := RunConfig{EvalEvery: 512, AuditInterval: 128}
	a, err := Run(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trajectory) == 0 {
		t.Fatal("no checkpoints recorded")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("replay not deterministic:\nfirst  %+v\nsecond %+v", a, b)
	}
	if a.Audits == 0 || a.Queries == 0 {
		t.Errorf("no audit activity: %+v", a)
	}
	last := a.Trajectory[len(a.Trajectory)-1]
	if last.Seen != 2048 {
		t.Errorf("final checkpoint at %d points, want 2048", last.Seen)
	}
	if last.MaxRelErr <= 0 {
		t.Errorf("no measured error recorded: %+v", last)
	}
}

// TestRunGateTrips checks the breach verdict actually fires — an
// impossible error budget must be reported as a breach, not an error —
// and that a breach with DiagDir set leaves the /metrics snapshot and
// Perfetto trace export CI uploads as failure artifacts.
func TestRunGateTrips(t *testing.T) {
	sc, err := ByName("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	sc.Points = 2048
	sc.MaxErrBudget = 1e-9 // unreachable: any measured error breaches
	diag := t.TempDir()
	res, err := Run(sc, RunConfig{EvalEvery: 512, AuditInterval: 128, DiagDir: diag})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Breached || res.BreachReason == "" {
		t.Errorf("impossible budget not flagged: %+v", res)
	}
	metrics, err := os.ReadFile(filepath.Join(diag, "diurnal-metrics.prom"))
	if err != nil {
		t.Fatalf("breach left no metrics snapshot: %v", err)
	}
	if !strings.Contains(string(metrics), "streamhist_quality_max_rel_err") {
		t.Error("metrics snapshot is missing the quality gauges")
	}
	traceBlob, err := os.ReadFile(filepath.Join(diag, "diurnal-trace.json"))
	if err != nil {
		t.Fatalf("breach left no trace export: %v", err)
	}
	var perfetto struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceBlob, &perfetto); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if len(perfetto.TraceEvents) == 0 {
		t.Error("trace export carries no events")
	}
}

// TestIncrementalScenarioShowsStaleness: the incremental engine's
// scenario must exercise the staleness path the exact engine never
// takes — that is the reason it is in the matrix.
func TestIncrementalScenarioShowsStaleness(t *testing.T) {
	sc, err := ByName("incremental-diurnal")
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Incremental {
		t.Fatal("incremental-diurnal is not configured incremental")
	}
	sc.Points = 3072
	res, err := Run(sc, RunConfig{EvalEvery: 1024, AuditInterval: 128})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Trajectory[len(res.Trajectory)-1]
	if last.Staleness <= 0 {
		t.Errorf("incremental scenario reports zero staleness: %+v", last)
	}
}
