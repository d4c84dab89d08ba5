package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// CaptureStats is the fixed-window state snapshot written alongside the
// ring in a slow-rebuild capture: the configuration and the rebuild
// engine's cumulative counters at the moment the slow push finished.
type CaptureStats struct {
	Window        int     `json:"window"`
	Buckets       int     `json:"buckets"`
	Eps           float64 `json:"eps"`
	Delta         float64 `json:"delta,omitempty"`
	Pending       int64   `json:"pending"`
	Evals         int64   `json:"herror_evals"`
	Candidates    int64   `json:"candidates"`
	MemoHits      int64   `json:"memo_hits"`
	MemoMisses    int64   `json:"memo_misses"`
	WarmHits      int64   `json:"warm_hits"`
	WarmFallbacks int64   `json:"warm_fallbacks"`

	// Accuracy-SLO context, present only on "slo_breach" captures.
	Stream         string  `json:"stream,omitempty"`
	MeasuredRelErr float64 `json:"measured_rel_err,omitempty"`
	EpsHeadroom    float64 `json:"eps_headroom,omitempty"`
	SLOTarget      float64 `json:"slo_target,omitempty"`
	SLOCompliance  float64 `json:"slo_compliance,omitempty"`
	SLOBurnRate    float64 `json:"slo_burn_rate,omitempty"`
}

// Capture is the on-disk form of one anomaly capture. Kind names what
// tripped it ("slow_rebuild", "slo_breach"); older captures predate the
// field and carry none.
type Capture struct {
	WrittenAt     time.Time    `json:"written_at"`
	Kind          string       `json:"kind,omitempty"`
	ThresholdNs   int64        `json:"threshold_ns"`
	DurationNs    int64        `json:"duration_ns"`
	Stats         CaptureStats `json:"stats"`
	TotalEvents   uint64       `json:"total_events"`
	DroppedEvents uint64       `json:"dropped_events"`
	Events        []EventJSON  `json:"events"`
}

// SetSlowCapture arms slow-rebuild anomaly capture: any rebuild whose
// duration reaches threshold snapshots the ring plus the engine's
// counters to a JSON file in dir, keeping at most keep files (oldest
// pruned). threshold <= 0 disarms. keep <= 0 means a default of 8.
// Call during wiring, before the recorder is shared.
func (r *Recorder) SetSlowCapture(dir string, threshold time.Duration, keep int) {
	if r == nil {
		return
	}
	if keep <= 0 {
		keep = 8
	}
	r.slowNs = int64(threshold)
	r.capDir = dir
	r.capKeep = keep
}

// MaybeCaptureSlow writes an anomaly capture if dur reaches the armed
// threshold, returning whether a capture was written. The write is
// synchronous — it only runs after a rebuild that already blew the
// latency budget, and determinism makes the behavior testable — and
// serialized by its own mutex so concurrent slow rebuilds produce
// distinct files. No-op (false) on a nil or disarmed recorder.
func (r *Recorder) MaybeCaptureSlow(dur time.Duration, st CaptureStats) bool {
	if r == nil || r.slowNs <= 0 || int64(dur) < r.slowNs || r.capDir == "" {
		return false
	}
	return r.capture("slow_rebuild", dur, st)
}

// CaptureAnomaly writes a capture unconditionally — the caller has
// already decided the condition (an accuracy-SLO breach, not a latency
// threshold) — tagged with kind. It shares the slow-rebuild machinery:
// the same directory, atomic write, sequence naming and pruning armed by
// SetSlowCapture (the duration threshold does not gate it; only an unset
// capture directory does). No-op (false) on a nil recorder or one with
// no capture directory.
func (r *Recorder) CaptureAnomaly(kind string, dur time.Duration, st CaptureStats) bool {
	if r == nil || r.capDir == "" {
		return false
	}
	return r.capture(kind, dur, st)
}

// capture snapshots the ring and writes one capture file; shared by the
// slow-rebuild and explicit-anomaly entry points.
func (r *Recorder) capture(kind string, dur time.Duration, st CaptureStats) bool {
	r.capMu.Lock()
	defer r.capMu.Unlock()

	events, total, dropped := func() ([]Event, uint64, uint64) {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.snapshotLocked(), r.next, r.droppedLocked()
	}()

	c := Capture{
		WrittenAt:     time.Now().UTC(),
		Kind:          kind,
		ThresholdNs:   r.slowNs,
		DurationNs:    int64(dur),
		Stats:         st,
		TotalEvents:   total,
		DroppedEvents: dropped,
		Events:        make([]EventJSON, len(events)),
	}
	for i, e := range events {
		c.Events[i] = e.JSON(r.namer)
	}

	if err := r.writeCapture(c); err != nil {
		r.capFails.Inc()
		return false
	}
	r.captures.Inc()
	r.Instant(EvCapture, 0, 0, dur, int64(len(events)), 0)
	return true
}

// writeCapture persists one capture atomically (tmp file + rename) and
// prunes the directory down to capKeep files. Filenames embed a
// process-local sequence so ordering is stable even within one wall
// tick: capture-<seq>-<unixnano>.json.
//
//lint:ignore mutex-discipline runs with r.capMu held by capture
func (r *Recorder) writeCapture(c Capture) error {
	if err := os.MkdirAll(r.capDir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}

	r.capSeq++
	seq := strconv.FormatUint(r.capSeq, 10)
	for len(seq) < 6 {
		seq = "0" + seq
	}
	name := "capture-" + seq + "-" + strconv.FormatInt(c.WrittenAt.UnixNano(), 10) + ".json"

	tmp := filepath.Join(r.capDir, name+".tmp")
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(r.capDir, name)); err != nil {
		_ = os.Remove(tmp) // best-effort cleanup; the rename error is what matters
		return err
	}
	r.pruneCaptures()
	return nil
}

// pruneCaptures keeps the newest capKeep capture files in capDir; errors
// are ignored (pruning is best-effort housekeeping).
func (r *Recorder) pruneCaptures() {
	entries, err := os.ReadDir(r.capDir)
	if err != nil {
		return
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && len(n) > len("capture-") && n[:len("capture-")] == "capture-" && filepath.Ext(n) == ".json" {
			names = append(names, n)
		}
	}
	if len(names) <= r.capKeep {
		return
	}
	sort.Strings(names) // zero-padded sequence numbers sort chronologically
	for _, n := range names[:len(names)-r.capKeep] {
		_ = os.Remove(filepath.Join(r.capDir, n)) // a stale file only costs disk
	}
}
