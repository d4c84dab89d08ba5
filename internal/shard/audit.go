package shard

import (
	"hash/fnv"
	"sort"

	"streamhist/internal/quality"
	"streamhist/internal/trace"
)

// wireAudit gives st a shadow auditor when the engine audits. The seed
// mixes the stream key, so each stream's audit panel is independent yet
// reproducible across restarts (FNV-1a of the key is stable).
func (sh *shard) wireAudit(key string, st *State) {
	if sh.eng.cfg.AuditInterval <= 0 {
		return
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	st.Aud = quality.NewAuditor(sh.eng.cfg.AuditInterval, int64(h.Sum64()))
}

// auditTarget adapts one stream's summaries and window to the
// quality.Target interface. It is only ever used from Ingest's drain,
// under the stream's lock, for the duration of one audit pass, after the
// drain has caught the auxiliaries up with the window.
type auditTarget struct{ st *State }

func (t auditTarget) Epsilon() float64    { return t.st.FW.Epsilon() }
func (t auditTarget) Seen() int64         { return t.st.FW.Seen() }
func (t auditTarget) WindowLen() int      { return t.st.FW.Len() }
func (t auditTarget) Value(i int) float64 { return t.st.FW.Value(i) }

func (t auditTarget) RangeSum(lo, hi int) (float64, error) {
	return t.st.FW.EstimateRangeSum(lo, hi)
}

func (t auditTarget) Quantile(phi float64) (float64, error) {
	return t.st.GK.Query(phi)
}

func (t auditTarget) Selectivity(lo, hi float64) (float64, error) {
	h, err := t.st.Sed.Histogram()
	if err != nil {
		return 0, err
	}
	return h.Selectivity(lo, hi), nil
}

func (t auditTarget) Staleness() float64 {
	hits, _, fallbacks := t.st.FW.IncrementalStats()
	if total := hits + fallbacks; total > 0 {
		return float64(hits) / float64(total)
	}
	return 0
}

func (t auditTarget) DriftCheck() (quality.DriftState, error) { return t.st.DriftCheck() }

// runAudit runs one due audit pass for key's stream and handles the
// pass's side effects: drift re-anchor accounting and SLO breach
// transitions (trace instant + anomaly capture, once per episode). Call
// from Ingest's drain, with st.mu held and st's queued values drained.
func (sh *shard) runAudit(key string, st *State) {
	sh.eng.failAt("ingest.audit")
	slo := st.Aud.SLO()
	wasBreaching := slo.Breaching()
	rep := st.Aud.Run(auditTarget{st: st}, sh.eng.qm, sh.tracer(), uint8(sh.id))

	if rep.Drift.Drifted {
		sh.eng.RecordDrift(key, rep.Drift)
	}

	if !wasBreaching && slo.Breaching() {
		sh.eng.qm.SLOBreach()
		sh.tracer().Instant(trace.EvSLOBreach, uint8(sh.id), 0, 0,
			int64(slo.Compliance()*1e6), int64(slo.BurnRate()*1e3))
		sh.tracer().CaptureAnomaly("slo_breach", 0, trace.CaptureStats{
			Window:         st.FW.Len(),
			Buckets:        st.FW.Buckets(),
			Eps:            rep.Epsilon,
			Stream:         key,
			MeasuredRelErr: rep.MaxRelErr,
			EpsHeadroom:    rep.Headroom,
			SLOTarget:      slo.Target(),
			SLOCompliance:  slo.Compliance(),
			SLOBurnRate:    slo.BurnRate(),
		})
		sh.logger().Warn("accuracy SLO breached",
			"shard", sh.id, "stream", key,
			"compliance", slo.Compliance(), "target", slo.Target(),
			"burn_rate", slo.BurnRate(), "measured_rel_err", rep.MaxRelErr,
			"eps", rep.Epsilon)
	}
}

// AuditStatus returns key's auditor status. Audits-disabled engines (and
// streams created before audits were enabled) return ok=false with no
// error; an unknown stream returns ErrUnknownStream.
func (e *Engine) AuditStatus(key string) (st quality.Status, ok bool, err error) {
	err = e.View(key, func(s *State) error {
		if s.Aud != nil {
			st, ok = s.Aud.Status(), true
		}
		return nil
	})
	return st, ok, err
}

// AuditEnabled reports whether the engine runs shadow audits.
func (e *Engine) AuditEnabled() bool { return e.cfg.AuditInterval > 0 }

// RecordDrift accounts for one drift re-anchor of key's stream that
// State.DriftCheck reported: it counts it and emits its EvDrift instant,
// attributed to the stream's shard. Both paths that check, an audit pass
// and the /drift endpoint, account through it.
func (e *Engine) RecordDrift(key string, d quality.DriftState) {
	e.driftReanchors.Inc()
	e.cfg.Trace.Instant(trace.EvDrift, uint8(e.ShardFor(key)), 0, 0,
		int64(d.Distance*1e6), int64(d.Alarms))
}

// StreamQuality is one stream's audit status in a QualitySnapshot.
type StreamQuality struct {
	Stream string         `json:"stream"`
	Shard  int            `json:"shard"`
	Status quality.Status `json:"status"`
}

// QualitySnapshot collects every audited stream's status, sorted by key.
// Each shard's audited streams are listed under its read lock (no
// cross-shard barrier); each auditor is then read under its stream's
// lock, after the shard lock is released, so a stream busy in a drain or
// an audit pass delays this snapshot but never the shard. The intended
// consumer is the /debug/quality endpoint.
func (e *Engine) QualitySnapshot() []StreamQuality {
	var out []StreamQuality
	var states []*State
	for _, sh := range e.shards {
		sh.mu.RLock()
		for key, st := range sh.streams {
			// Aud is set before a state is installed and never changes.
			if st.Aud != nil {
				out = append(out, StreamQuality{Stream: key, Shard: sh.id})
				states = append(states, st)
			}
		}
		sh.mu.RUnlock()
	}
	for i, st := range states {
		out[i].Status = st.auditStatus()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stream < out[j].Stream })
	return out
}

// ShardStatus is one shard's health detail, as exposed by /readyz.
type ShardStatus struct {
	ID          int    `json:"id"`
	Streams     int    `json:"streams"`
	Degraded    bool   `json:"degraded"`
	Quarantined bool   `json:"quarantined"`
	Breaker     string `json:"breaker"`
}

// ShardStatuses reports each shard's health: stream count, degraded and
// quarantined flags, breaker state. Stream counts are read under each
// shard's read lock; flags are atomics.
func (e *Engine) ShardStatuses() []ShardStatus {
	out := make([]ShardStatus, len(e.shards))
	for i, sh := range e.shards {
		sh.mu.RLock()
		n := len(sh.streams)
		sh.mu.RUnlock()
		out[i] = ShardStatus{
			ID:          sh.id,
			Streams:     n,
			Degraded:    sh.degraded.Load(),
			Quarantined: sh.quarantined.Load(),
			Breaker:     sh.breakerState().String(),
		}
	}
	return out
}
