// Package obs is the project's observability substrate: a stdlib-only,
// race-safe metrics registry exposing counters, gauges and latency
// quantile tracks in the Prometheus text format.
//
// Two design points matter everywhere the package is used:
//
//   - Nil is the disabled state. Every registration method on a nil
//     *Registry returns a nil handle, and every mutating method on a nil
//     handle is a no-op that performs no allocation — so hot paths carry
//     unconditional c.Inc() / t.ObserveSince(start) calls and pay a
//     pointer test when metrics are off. There is no build tag and no
//     global switch: plumb a *Registry to enable, plumb nil to disable.
//
//   - Latency distributions are summarized by the library's own
//     Greenwald–Khanna quantile summaries (internal/quantile), the
//     paper-adjacent machinery this repository reproduces — each Track is
//     a GK summary over observed seconds, exposed as p50/p90/p99 series.
//
// Handles are cheap: a Counter or Gauge is one atomic word, so updates
// never take the registry lock. Tracks serialize Observe with a private
// mutex (a GK insert is O(log size) and allocation-light).
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"streamhist/internal/quantile"
)

// trackEps is the rank precision of a Track's GK summary: quantile
// estimates are within 0.5% rank error, ample for p50/p90/p99 monitoring.
const trackEps = 0.005

// TrackQuantiles are the quantiles every Track exports, the conventional
// latency monitoring set.
var TrackQuantiles = []float64{0.5, 0.9, 0.99}

// meta is the identity of one series: a metric family name, an optional
// raw label fragment (`path="/ingest"` — no surrounding braces), and the
// family help text.
type meta struct {
	name   string
	labels string
	help   string
}

// metric is anything the registry can expose.
type metric interface {
	id() meta
	typ() string
}

// Registry holds registered metrics and renders them in the Prometheus
// text exposition format. The zero value is unusable; construct with
// NewRegistry, or use a nil *Registry as the disabled no-op instance.
type Registry struct {
	mu    sync.RWMutex
	all   []metric          // guarded by mu; registration order
	index map[string]metric // guarded by mu; keyed by name+"\xff"+labels
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]metric)}
}

// register returns the existing metric under (name, labels) or installs
// the one built by mk. Registering the same series under a different
// metric type is a programming error and panics.
//
// Lookups vastly outnumber installs — per-request label handles resolve
// through here — so the fast path takes only the read lock and the write
// lock is acquired (with a re-check) just to install a new series. Reads
// therefore run concurrently with each other and with WriteText scrapes.
func (r *Registry) register(m meta, typ string, mk func() metric) metric {
	key := m.name + "\xff" + m.labels
	r.mu.RLock()
	got, ok := r.index[key]
	r.mu.RUnlock()
	if ok {
		if got.typ() != typ {
			panic("obs: series " + m.name + "{" + m.labels + "} registered as both " + got.typ() + " and " + typ)
		}
		return got
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.index[key]; ok { // lost the install race; reuse the winner
		if got.typ() != typ {
			panic("obs: series " + m.name + "{" + m.labels + "} registered as both " + got.typ() + " and " + typ)
		}
		return got
	}
	made := mk()
	r.index[key] = made
	r.all = append(r.all, made)
	return made
}

// Counter is a monotonically increasing integer series. A nil *Counter is
// a no-op.
type Counter struct {
	v atomic.Int64
	m meta
}

// Counter registers (or finds) an unlabeled counter. Returns nil on a nil
// registry.
func (r *Registry) Counter(name, help string) *Counter {
	return r.LabeledCounter(name, "", help)
}

// LabeledCounter registers (or finds) a counter series carrying a raw
// label fragment such as `path="/ingest",code="2xx"`.
func (r *Registry) LabeledCounter(name, labels, help string) *Counter {
	if r == nil {
		return nil
	}
	m := meta{name: name, labels: labels, help: help}
	return r.register(m, "counter", func() metric { return &Counter{m: m} }).(*Counter)
}

func (c *Counter) id() meta    { return c.m }
func (c *Counter) typ() string { return "counter" }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float series that can move both ways. A nil *Gauge is a
// no-op.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
	m    meta
}

// Gauge registers (or finds) an unlabeled gauge. Returns nil on a nil
// registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.LabeledGauge(name, "", help)
}

// LabeledGauge registers (or finds) a gauge series with a raw label
// fragment.
func (r *Registry) LabeledGauge(name, labels, help string) *Gauge {
	if r == nil {
		return nil
	}
	m := meta{name: name, labels: labels, help: help}
	return r.register(m, "gauge", func() metric { return &Gauge{m: m} }).(*Gauge)
}

func (g *Gauge) id() meta    { return g.m }
func (g *Gauge) typ() string { return "gauge" }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + d
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// gaugeFunc is a gauge whose value is computed at scrape time.
type gaugeFunc struct {
	m  meta
	fn func() float64
}

func (g *gaugeFunc) id() meta    { return g.m }
func (g *gaugeFunc) typ() string { return "gauge" }

// GaugeFunc registers a gauge evaluated on every scrape. fn must be safe
// to call concurrently with anything else touching its data (take the
// owning lock inside fn). No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	m := meta{name: name, labels: "", help: help}
	r.register(m, "gauge", func() metric { return &gaugeFunc{m: m, fn: fn} })
}

// Track is a latency (or other magnitude) distribution summarized by a
// Greenwald–Khanna quantile summary, exposed as a Prometheus summary:
// p50/p90/p99 series plus _sum and _count. A nil *Track is a no-op.
type Track struct {
	m  meta
	mu sync.Mutex
	gk *quantile.GK // guarded by mu
	n  int64        // guarded by mu
	s  float64      // guarded by mu
}

// Track registers (or finds) an unlabeled latency track. Returns nil on a
// nil registry.
func (r *Registry) Track(name, help string) *Track {
	return r.LabeledTrack(name, "", help)
}

// LabeledTrack registers (or finds) a track series with a raw label
// fragment.
func (r *Registry) LabeledTrack(name, labels, help string) *Track {
	if r == nil {
		return nil
	}
	m := meta{name: name, labels: labels, help: help}
	return r.register(m, "summary", func() metric {
		gk, err := quantile.NewGK(trackEps)
		if err != nil {
			panic("obs: " + err.Error()) // trackEps is a valid constant
		}
		return &Track{m: m, gk: gk}
	}).(*Track)
}

func (t *Track) id() meta    { return t.m }
func (t *Track) typ() string { return "summary" }

// Observe records one sample (for latency tracks, in seconds).
func (t *Track) Observe(v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gk.Insert(v)
	t.n++
	t.s += v
}

// Start returns the timestamp ObserveSince expects, or the zero time on a
// nil track — so disabled metrics skip the clock read entirely.
func (t *Track) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the seconds elapsed since start. A zero start (the
// disabled path of Start) is ignored.
func (t *Track) ObserveSince(start time.Time) {
	if t == nil || start.IsZero() {
		return
	}
	t.Observe(time.Since(start).Seconds())
}

// Count returns the number of samples observed (0 on a nil track).
func (t *Track) Count() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// snapshot returns the quantile values, count and sum under the lock.
func (t *Track) snapshot() (qs []float64, n int64, sum float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	qs = make([]float64, len(TrackQuantiles))
	for i, phi := range TrackQuantiles {
		v, err := t.gk.Query(phi)
		if err != nil { // empty summary
			v = math.NaN()
		}
		qs[i] = v
	}
	return qs, t.n, t.s
}
