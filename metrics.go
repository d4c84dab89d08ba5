package streamhist

import "streamhist/internal/obs"

// Metrics is a registry of instrumentation series: counters, gauges and
// latency quantile tracks (the quantile tracks are served by this
// library's own Greenwald–Khanna summaries — the estimator measuring
// itself). Attach one to a maintainer with its SetRegistry method and
// serve it with Handler or WriteText, which emit Prometheus text
// exposition format.
//
// A nil *Metrics everywhere means "disabled" and costs nothing: no
// allocations, no clock reads, no atomic traffic on the push hot path.
type Metrics = obs.Registry

// NewMetrics creates an empty metrics registry, safe for concurrent use.
func NewMetrics() *Metrics { return obs.NewRegistry() }
