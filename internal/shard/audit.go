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
	cfg := sh.eng.cfg.Audit
	if cfg == nil {
		return
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	st.Aud = quality.NewAuditor(*cfg, int64(h.Sum64()))
}

// auditTarget adapts one stream's summaries to the quality.Target
// interface. It is only ever used from the loop's apply, under the
// stream's lock, for the duration of one audit pass, after apply has
// drained the stream's queued values so the auxiliaries it reads are
// caught up with the window.
type auditTarget struct{ st *State }

func (t auditTarget) Epsilon() float64 { return t.st.FW.Epsilon() }
func (t auditTarget) WindowLen() int   { return t.st.FW.Len() }

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

// DriftCheck mirrors the HTTP drift endpoint's observation discipline:
// re-anchor rather than compare histograms of different spans (the
// window is still filling), then run one detector observation against
// the current window histogram.
func (t auditTarget) DriftCheck() (dist float64, drifted bool, alarms, checks int, err error) {
	res, err := t.st.FW.Histogram()
	if err != nil {
		return 0, false, 0, 0, err
	}
	if ref := t.st.Det.Reference(); ref != nil {
		rs, re := ref.Span()
		cs, ce := res.Histogram.Span()
		if rs != cs || re != ce {
			t.st.Det.Reset()
		}
	}
	dist, drifted, err = t.st.Det.Observe(res.Histogram)
	return dist, drifted, t.st.Det.Alarms(), t.st.Det.Checks(), err
}

// runAudit runs one due audit pass for key's stream and handles the
// pass's side effects: drift re-anchor accounting and SLO breach
// transitions (trace instant + anomaly capture, once per episode). Call
// from apply, with sh.mu held for writing and st.mu held, after st's
// queued values are drained.
//
//lint:ignore mutex-discipline runs under process()'s sh.mu
func (sh *shard) runAudit(key string, st *State) {
	slo := st.Aud.SLO()
	wasBreaching := slo.Breaching()
	rep := st.Aud.Run(auditTarget{st: st}, sh.eng.qm, sh.tracer(), uint8(sh.id))

	if rep.Drift.Drifted {
		sh.eng.qm.DriftReanchors.Inc()
		sh.tracer().Instant(trace.EvDrift, uint8(sh.id), 0, 0,
			int64(rep.Drift.Distance*1e6), int64(rep.Drift.Alarms))
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
func (e *Engine) AuditEnabled() bool { return e.cfg.Audit != nil }

// StreamQuality is one stream's audit status in a QualitySnapshot.
type StreamQuality struct {
	Stream string         `json:"stream"`
	Shard  int            `json:"shard"`
	Status quality.Status `json:"status"`
}

// QualitySnapshot collects every audited stream's status, sorted by key.
// Each shard is snapshotted under its read lock (no cross-shard
// barrier), which suffices because only the loop's apply, holding the
// write lock, mutates an auditor. The intended consumer is the
// /debug/quality endpoint.
func (e *Engine) QualitySnapshot() []StreamQuality {
	var out []StreamQuality
	for _, sh := range e.shards {
		func() {
			sh.mu.RLock()
			defer sh.mu.RUnlock()
			for key, st := range sh.streams {
				if st.Aud == nil {
					continue
				}
				out = append(out, StreamQuality{Stream: key, Shard: sh.id, Status: st.Aud.Status()})
			}
		}()
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
		br := "closed"
		if sh.br != nil {
			br = sh.br.State().String()
		}
		out[i] = ShardStatus{
			ID:          sh.id,
			Streams:     n,
			Degraded:    sh.degraded.Load(),
			Quarantined: sh.quarantined.Load(),
			Breaker:     br,
		}
	}
	return out
}
