package server

import (
	"net/http"

	"streamhist/internal/shard"
)

// handleSLO serves GET /v1/streams/{key}/slo: the stream's accuracy SLO
// — objective, rolling compliance, error-budget burn rate, breach state
// — plus the last shadow-audit report backing those numbers. 404s with
// audit_disabled when the server runs without auditing (or the stream
// predates it); the distinction from unknown_stream matters to clients
// probing for the feature.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request, key string) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	st, ok, err := s.eng.AuditStatus(key)
	if err != nil {
		if s.writeEngineError(w, key, err) {
			return
		}
		writeError(w, http.StatusInternalServerError, errInternal, "%v", err)
		return
	}
	if !ok {
		writeStreamError(w, http.StatusNotFound, errAuditDisabled, key,
			"accuracy auditing is not enabled (start the server with auditing on)")
		return
	}
	writeJSON(w, map[string]any{
		"stream": key,
		"slo": map[string]any{
			"objective":  "P[rel_err <= epsilon] >= target over the rolling window",
			"target":     st.Target,
			"window":     st.Window,
			"samples":    st.Samples,
			"compliance": st.Compliance,
			"burnRate":   st.BurnRate,
			"breaching":  st.Breaching,
			"breaches":   st.SLOBreaches,
		},
		"audits":    st.Audits,
		"queries":   st.Queries,
		"breaches":  st.Breaches,
		"lastAudit": st.LastAudit,
	})
}

// handleDebugQuality serves GET /debug/quality: every audited stream's
// SLO and last-audit state in one page, for operators chasing which
// tenant is burning its error budget. Debug surface: it iterates every
// stream, so it is not for dashboards to poll per second.
func (s *Server) handleDebugQuality(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	streams := s.eng.QualitySnapshot()
	breaching := 0
	for _, sq := range streams {
		if sq.Status.Breaching {
			breaching++
		}
	}
	if streams == nil {
		streams = []shard.StreamQuality{}
	}
	writeJSON(w, map[string]any{
		"audit":     s.eng.AuditEnabled(),
		"streams":   streams,
		"count":     len(streams),
		"breaching": breaching,
	})
}
