package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"

	"streamhist/internal/obs"
	"streamhist/internal/server"
	"streamhist/internal/trace"
)

// RunConfig tunes how the matrix is replayed. Zero fields take the
// defaults TestMatrixBudgets runs with.
type RunConfig struct {
	EvalEvery     int // points between trajectory checkpoints (default 1024)
	AuditInterval int // auditor pass interval (default 256)
	AuditShadow   int // exact shadow ring size (default 1024)

	// DiagDir, when non-empty, attaches a metrics registry and a trace
	// ring to each scenario's daemon and, if the scenario breaches its
	// contract, writes the /metrics snapshot and the Perfetto trace
	// export there (<name>-metrics.prom, <name>-trace.json) before the
	// daemon closes — the files CI uploads as failure artifacts.
	DiagDir string
}

// The accuracy SLO every scenario's daemon runs: the required in-contract
// query fraction and the rolling window of query outcomes it is over.
const (
	sloTarget = 0.9
	sloWindow = 256
)

func (c RunConfig) withDefaults() RunConfig {
	if c.EvalEvery == 0 {
		c.EvalEvery = 1024
	}
	if c.AuditInterval == 0 {
		c.AuditInterval = 256
	}
	if c.AuditShadow == 0 {
		c.AuditShadow = 1024
	}
	return c
}

// Checkpoint is one point of a scenario's measured-accuracy
// trajectory, sampled from GET /v1/streams/{key}/slo.
type Checkpoint struct {
	Seen       int64
	MaxRelErr  float64
	Staleness  float64
	Compliance float64
	BurnRate   float64
}

// Result is one scenario's replay outcome: the trajectory, the worst
// checkpoint, and the gate verdict.
type Result struct {
	Name         string
	Trajectory   []Checkpoint
	WorstRelErr  float64
	Audits       int64
	Queries      int64
	Breached     bool
	BreachReason string
}

// quiet is the runner's logger: scenario replays exercise breach paths
// on purpose, so warnings are expected and not for the console.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// sloResponse mirrors the fields of GET /v1/streams/{key}/slo the
// runner consumes.
type sloResponse struct {
	SLO struct {
		Compliance float64 `json:"compliance"`
		BurnRate   float64 `json:"burnRate"`
	} `json:"slo"`
	Audits    int64 `json:"audits"`
	Queries   int64 `json:"queries"`
	LastAudit *struct {
		Seen      int64   `json:"seen"`
		MaxRelErr float64 `json:"maxRelErr"`
		Staleness float64 `json:"staleness"`
	} `json:"lastAudit"`
}

// Run replays one scenario through a fresh in-memory daemon and
// returns its trajectory and gate verdict. Everything is seeded, so a
// rerun reproduces the same measured errors exactly.
func Run(sc Scenario, cfg RunConfig) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{Name: sc.Name}
	if sc.Batch > cfg.AuditInterval {
		return res, fmt.Errorf("scenario %s: batch %d exceeds audit interval %d (audits fire at most once per batch)",
			sc.Name, sc.Batch, cfg.AuditInterval)
	}
	opts := server.Options{
		Window:        sc.Window,
		Buckets:       sc.Buckets,
		Eps:           sc.Eps,
		Delta:         sc.Eps,
		Incremental:   sc.Incremental,
		Audit:         true,
		AuditInterval: cfg.AuditInterval,
		AuditShadow:   cfg.AuditShadow,
		SLOTarget:     sloTarget,
		SLOWindow:     sloWindow,
		Logger:        quiet,
	}
	if cfg.DiagDir != "" {
		opts.Metrics = obs.NewRegistry()
		tr, err := trace.New(4096)
		if err != nil {
			return res, fmt.Errorf("scenario %s: trace ring: %w", sc.Name, err)
		}
		opts.Trace = tr
	}
	s, err := server.Open(opts)
	if err != nil {
		return res, fmt.Errorf("scenario %s: open: %w", sc.Name, err)
	}
	defer func() { _ = s.Close() }()

	gen := sc.Gen()
	var b strings.Builder
	sent := 0
	nextEval := cfg.EvalEvery
	for sent < sc.Points {
		b.Reset()
		for i := 0; i < sc.Batch && sent < sc.Points; i++ {
			fmt.Fprintf(&b, "%g\n", gen.Next())
			sent++
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
			"/v1/streams/"+sc.Name+"/ingest", strings.NewReader(b.String())))
		if rec.Code != http.StatusOK {
			return res, fmt.Errorf("scenario %s: ingest at %d: status %d: %s",
				sc.Name, sent, rec.Code, rec.Body.String())
		}
		if sent >= nextEval || sent == sc.Points {
			nextEval += cfg.EvalEvery
			cp, slo, err := sampleSLO(s, sc.Name)
			if err != nil {
				return res, fmt.Errorf("scenario %s: checkpoint at %d: %w", sc.Name, sent, err)
			}
			res.Trajectory = append(res.Trajectory, cp)
			res.Audits, res.Queries = slo.Audits, slo.Queries
			if cp.MaxRelErr > res.WorstRelErr {
				res.WorstRelErr = cp.MaxRelErr
			}
		}
	}

	if res.WorstRelErr > sc.MaxErrBudget {
		res.Breached = true
		res.BreachReason = fmt.Sprintf("measured max rel err %.4f exceeds budget %.4f",
			res.WorstRelErr, sc.MaxErrBudget)
	} else if n := len(res.Trajectory); n > 0 && res.Trajectory[n-1].Compliance < sc.MinCompliance {
		res.Breached = true
		res.BreachReason = fmt.Sprintf("final SLO compliance %.3f below floor %.3f (burn rate %.2f)",
			res.Trajectory[n-1].Compliance, sc.MinCompliance, res.Trajectory[n-1].BurnRate)
	}
	if res.Breached && cfg.DiagDir != "" {
		if err := dumpDiagnostics(s, sc.Name, cfg.DiagDir); err != nil {
			return res, fmt.Errorf("scenario %s: diagnostics: %w", sc.Name, err)
		}
	}
	return res, nil
}

// dumpDiagnostics snapshots the breached scenario's /metrics exposition
// and Perfetto trace export into dir for the CI artifact upload.
func dumpDiagnostics(s *server.Server, name, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range []struct{ path, file string }{
		{"/metrics", name + "-metrics.prom"},
		{"/debug/trace/chrome", name + "-trace.json"},
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, d.path, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("GET %s: status %d: %s", d.path, rec.Code, rec.Body.String())
		}
		if err := os.WriteFile(filepath.Join(dir, d.file), rec.Body.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// sampleSLO reads one trajectory checkpoint off the SLO endpoint.
func sampleSLO(s *server.Server, key string) (Checkpoint, sloResponse, error) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/streams/"+key+"/slo", nil))
	var slo sloResponse
	if rec.Code != http.StatusOK {
		return Checkpoint{}, slo, fmt.Errorf("slo: status %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &slo); err != nil {
		return Checkpoint{}, slo, fmt.Errorf("slo body: %w", err)
	}
	if slo.LastAudit == nil {
		return Checkpoint{}, slo, fmt.Errorf("slo: no audit pass has run yet")
	}
	return Checkpoint{
		Seen:       slo.LastAudit.Seen,
		MaxRelErr:  slo.LastAudit.MaxRelErr,
		Staleness:  slo.LastAudit.Staleness,
		Compliance: slo.SLO.Compliance,
		BurnRate:   slo.SLO.BurnRate,
	}, slo, nil
}

// RunMatrix replays every scenario and returns the results in matrix
// order.
func RunMatrix(cfg RunConfig) ([]Result, error) {
	var out []Result
	for _, sc := range Matrix() {
		res, err := Run(sc, cfg)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}
