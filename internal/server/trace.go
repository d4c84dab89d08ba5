package server

import (
	"context"
	"net/http"

	"streamhist/internal/core"
	"streamhist/internal/trace"
)

// routeCodes maps each route's metrics label (see metricsPath) to the
// one-byte Code slot of its EvHTTP events; 0 is "other". The literal
// holds the fixed endpoints; each streamOps entry adds its
// /v1/streams/{key}/<name> label. Codes 1-10 and 28 named the pre-v1
// routes and stay unused, so a code means the same path in every capture
// file. codePaths is the inverse, used by the exports to render codes
// back to paths.
var routeCodes = func() map[string]uint8 {
	m := map[string]uint8{
		"/healthz":            11,
		"/readyz":             12,
		"/metrics":            13,
		"/debug/trace/events": 14,
		"/debug/trace/chrome": 15,
		"/v1/streams":         16,
		"/v1/streams/{key}":   17,
		"/debug/quality":      30,
	}
	for _, op := range streamOps {
		m["/v1/streams/{key}/"+op.name] = op.code
	}
	return m
}()

var codePaths = func() map[uint8]string {
	m := make(map[uint8]string, len(routeCodes))
	for p, c := range routeCodes {
		m[c] = p
	}
	return m
}()

// tracePathName is the recorder's code namer: it renders EvHTTP codes
// back to request paths; other event types keep their type name.
func tracePathName(t trace.EventType, code uint8) string {
	if t == trace.EvHTTP {
		if p, ok := codePaths[code]; ok {
			return p
		}
		return "other"
	}
	return ""
}

// spanKey carries the active request's span ID through the context.
type spanKey struct{}

// spanFromContext returns the request span threaded by traceware, or 0
// when tracing is disabled.
func spanFromContext(ctx context.Context) trace.SpanID {
	id, _ := ctx.Value(spanKey{}).(trace.SpanID)
	return id
}

// traceware opens one EvHTTP span per request, honoring an incoming W3C
// traceparent header (the caller's span becomes the parent and its trace
// ID is echoed back) and injecting a traceparent response header so
// external callers can correlate. It sits innermost in the handler chain
// — inside the timeout handler — so the span measures handler time, and
// the span ID rides the request context into the handlers. With tracing
// disabled (and no debug logging) it is the identity.
func (s *Server) traceware(next http.Handler) http.Handler {
	if s.tr == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		code := routeCodes[metricsPath(r.URL.Path)] // 0 = other
		hi, lo := s.tr.TraceID()
		var parent trace.SpanID
		if phi, plo, pspan, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
			hi, lo, parent = phi, plo, pspan
		}
		span := s.tr.StartSpan(parent, trace.EvHTTP, code, int64(hi), int64(lo))
		w.Header().Set("traceparent", trace.FormatTraceparent(hi, lo, span.ID()))
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r.WithContext(context.WithValue(r.Context(), spanKey{}, span.ID())))
		dur := span.End(int64(rec.status), 0)
		if s.logDebug {
			s.logger.Debug("request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", rec.status,
				"dur", dur,
				"span", uint64(span.ID()),
				"traceparent", trace.FormatTraceparent(hi, lo, span.ID()),
			)
		}
	})
}

// setTraceParent threads the active request's span into a stream's
// fixed-window maintainer so a rebuild the request forces (lazy ingest
// flushes at the next query) is attributed to this request.
//
//lint:ignore mutex-discipline runs with the stream's lock held (inside Engine.View)
func (s *Server) setTraceParent(r *http.Request, fw *core.FixedWindow) {
	if s.tr != nil {
		fw.SetTraceParent(spanFromContext(r.Context()))
	}
}

// handleTraceEvents serves the flight-recorder ring as JSON: recorder
// identity, drop accounting, and the events oldest-first.
func (s *Server) handleTraceEvents(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	events := s.tr.Snapshot()
	out := make([]trace.EventJSON, len(events))
	for i, e := range events {
		out[i] = e.JSON(tracePathName)
	}
	hi, lo := s.tr.TraceID()
	writeJSON(w, map[string]any{
		"traceId":  trace.FormatTraceparent(hi, lo, 0)[3:35],
		"epoch":    s.tr.Epoch(),
		"capacity": s.tr.Capacity(),
		"total":    s.tr.Total(),
		"dropped":  s.tr.Dropped(),
		"events":   out,
	})
}

// handleTraceChrome serves the ring in the Chrome trace-event format —
// load the download at ui.perfetto.dev or chrome://tracing.
func (s *Server) handleTraceChrome(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	events := s.tr.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="streamhist-trace.json"`)
	if err := trace.WriteChrome(w, events, tracePathName); err != nil {
		return // headers already sent
	}
}
