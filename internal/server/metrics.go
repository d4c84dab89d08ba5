package server

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"streamhist/internal/obs"
	"streamhist/internal/shard"
)

// metricsPath collapses a request path to a bounded-cardinality label:
// fixed endpoints label as themselves, per-stream routes label with a
// {key} placeholder (never the key itself — tenants must not be able to
// grow the label space), and everything else (typo'd paths, scanners,
// pprof) is "other". The labels are the keys of routeCodes.
func metricsPath(p string) string {
	if _, ok := routeCodes[p]; ok {
		return p
	}
	if rest, ok := strings.CutPrefix(p, "/v1/streams/"); ok {
		key, op, hasOp := strings.Cut(rest, "/")
		switch {
		case key == "":
		case !hasOp:
			return "/v1/streams/{key}"
		default:
			if label := "/v1/streams/{key}/" + op; routeCodes[label] != 0 {
				return label
			}
		}
	}
	return "other"
}

// httpMetrics instruments every request: per-path request counters split
// by status class, per-path latency quantiles (GK-backed), and an
// in-flight gauge. A nil *httpMetrics (metrics disabled) makes middleware
// the identity.
type httpMetrics struct {
	reg      *obs.Registry
	inflight *obs.Gauge
}

func newHTTPMetrics(reg *obs.Registry) *httpMetrics {
	if reg == nil {
		return nil
	}
	return &httpMetrics{
		reg:      reg,
		inflight: reg.Gauge("streamhist_http_inflight_requests", "HTTP requests currently being served."),
	}
}

// statusRecorder captures the response status for labeling. WriteHeader
// may never be called (implicit 200), so it starts at 200.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// statusClass collapses a status code to its class ("2xx", "4xx", ...)
// to keep label cardinality at one series per class, not per code.
func statusClass(status int) string {
	return strconv.Itoa(status/100) + "xx"
}

// middleware wraps the whole handler chain (including pprof, so profile
// downloads are counted too). Label handles are fetched per request via
// the registry's dedup index — a lock plus a map hit, negligible next to
// request handling.
func (hm *httpMetrics) middleware(next http.Handler) http.Handler {
	if hm == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := metricsPath(r.URL.Path)
		hm.inflight.Add(1)
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start).Seconds()
		hm.inflight.Add(-1)
		hm.reg.LabeledCounter("streamhist_http_requests_total",
			`path="`+path+`",code="`+statusClass(rec.status)+`"`,
			"HTTP requests by path and status class.").Inc()
		hm.reg.LabeledTrack("streamhist_http_request_seconds",
			`path="`+path+`"`,
			"HTTP request latency in seconds by path.").Observe(elapsed)
	})
}

// registerGaugeFuncs publishes point-in-time state readings. The
// window gauges read the reserved default stream, the one every server
// has; per-stream gauges would be unbounded cardinality, so everything
// else aggregates across shards. Each reading takes the default
// stream's lock, so collection contends with requests exactly like any
// other reader; /metrics scrapes are infrequent by design.
func (s *Server) registerGaugeFuncs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	defaultStat := func(read func(*shard.State) float64) func() float64 {
		return func() float64 {
			var v float64
			_ = s.eng.View(DefaultStream, func(st *shard.State) error {
				v = read(st)
				return nil
			})
			return v
		}
	}
	reg.GaugeFunc("streamhist_window_points", "Points currently in the default stream's fixed window.",
		defaultStat(func(st *shard.State) float64 { return float64(st.FW.Len()) }))
	reg.GaugeFunc("streamhist_stream_seen", "Points ingested into the default stream since it began.",
		defaultStat(func(st *shard.State) float64 { return float64(st.FW.Seen()) }))
	reg.GaugeFunc("streamhist_gk_tuples", "Tuples held by the default stream's GK quantile summary.",
		defaultStat(func(st *shard.State) float64 { return float64(st.GK.Size()) }))
	reg.GaugeFunc("streamhist_streams", "Live streams across all shards.", func() float64 {
		return float64(s.eng.KeyCount())
	})
	// Self-healing state flags are atomics: readable without shard locks.
	reg.GaugeFunc("streamhist_degraded", "1 while any shard accepts ingests memory-only (durability down).", func() float64 {
		if s.eng.Degraded() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("streamhist_quarantined", "1 while any shard's in-memory state is quarantined after a lock-held panic.", func() float64 {
		if s.eng.Quarantined() {
			return 1
		}
		return 0
	})
}
