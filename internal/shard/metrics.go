package shard

import "streamhist/internal/obs"

// The engine's durability and resilience metrics keep the single-stream
// daemon's series names and help strings, so dashboards built for it keep
// reading. All shards aggregate into the unlabeled series; the per-shard
// view is the bounded shard="<i>"-labeled gauges (never per-key).

// ckptMetrics instruments the checkpoint path. The zero value (metrics
// disabled) is fully usable: every handle is nil and every call a no-op.
type ckptMetrics struct {
	duration *obs.Track
	total    *obs.Counter
	failures *obs.Counter
	bytes    *obs.Gauge
}

func newCkptMetrics(reg *obs.Registry) ckptMetrics {
	if reg == nil {
		return ckptMetrics{}
	}
	return ckptMetrics{
		duration: reg.Track("streamhist_checkpoint_seconds", "Checkpoint duration in seconds (marshal through WAL truncation)."),
		total:    reg.Counter("streamhist_checkpoints_total", "Checkpoints completed."),
		failures: reg.Counter("streamhist_checkpoint_failures_total", "Checkpoints that failed."),
		bytes:    reg.Gauge("streamhist_checkpoint_bytes", "Size of the most recent checkpoint snapshot in bytes."),
	}
}

// resilienceMetrics instruments the self-healing layer: the WAL circuit
// breaker, degraded-mode ingestion, recovery probes and re-anchoring,
// the checkpoint watchdog, and panic containment. The zero value
// (metrics disabled) is fully usable.
type resilienceMetrics struct {
	reg             *obs.Registry // for the labeled transition counter; nil disables
	breakerState    *obs.Gauge    // highest state over the shards (0 closed, 1 open, 2 half_open)
	appendFailures  *obs.Counter  // WAL appends that failed on the ingest path
	degradedEntries *obs.Counter  // times the server entered degraded mode
	degradedBatches *obs.Counter  // ingest batches acknowledged memory-only
	degradedPoints  *obs.Counter  // points acknowledged memory-only
	probes          *obs.Counter  // recovery probes attempted
	probeFailures   *obs.Counter  // recovery probes that failed
	reanchors       *obs.Counter  // successful re-anchors (fresh checkpoint + WAL reset)
	watchdog        *obs.Counter  // checkpoint-watchdog escalations to degraded mode
	quarantines     *obs.Counter  // panics that struck while the state lock was held
}

func newResilienceMetrics(reg *obs.Registry) resilienceMetrics {
	if reg == nil {
		return resilienceMetrics{}
	}
	return resilienceMetrics{
		reg:             reg,
		breakerState:    reg.Gauge("streamhist_breaker_state", "WAL circuit breaker state (0 closed, 1 open, 2 half_open)."),
		appendFailures:  reg.Counter("streamhist_wal_append_failures_total", "WAL appends that failed on the ingest path."),
		degradedEntries: reg.Counter("streamhist_degraded_entries_total", "Times the server entered degraded (memory-only) mode."),
		degradedBatches: reg.Counter("streamhist_degraded_batches_total", "Ingest batches acknowledged without durability while degraded."),
		degradedPoints:  reg.Counter("streamhist_degraded_points_total", "Stream points acknowledged without durability while degraded."),
		probes:          reg.Counter("streamhist_recovery_probes_total", "Durability recovery probes attempted."),
		probeFailures:   reg.Counter("streamhist_recovery_probe_failures_total", "Durability recovery probes that failed."),
		reanchors:       reg.Counter("streamhist_reanchors_total", "Successful recoveries: fresh checkpoint taken and WAL re-anchored."),
		watchdog:        reg.Counter("streamhist_checkpoint_watchdog_escalations_total", "Checkpoint-watchdog escalations into degraded mode."),
		quarantines:     reg.Counter("streamhist_quarantines_total", "Panics that struck while the state lock was held, quarantining the state."),
	}
}

// transition records one breaker transition in the labeled counter.
// States are a fixed three-value set, so cardinality stays bounded.
func (rm *resilienceMetrics) transition(from, to string) {
	if rm.reg == nil {
		return
	}
	rm.reg.LabeledCounter("streamhist_breaker_transitions_total",
		`from="`+from+`",to="`+to+`"`,
		"WAL circuit breaker transitions by edge.").Inc()
}
