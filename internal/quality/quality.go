// Package quality is the online accuracy auditor and SLO engine: it
// measures, continuously and in production, whether the answers the
// approximate summaries serve actually stay inside the ε contract the
// paper proves for them.
//
// The design is a sampling shadow audit. Beside each audited stream the
// auditor keeps an exact, bounded-memory view of the stream — a ring of
// the most recent window points (the positional shadow) and a seeded
// uniform reservoir of whole-stream values (the value shadow). Every
// Interval ingested points it replays a panel of queries against both
// the approximate summaries and the exact shadow:
//
//   - range sums over window positions (fixed-window histogram vs the
//     exact sum over the shadowed suffix),
//   - quantiles (GK summary vs the sorted reservoir),
//   - selectivities (streaming equi-depth histogram vs the reservoir's
//     exact fraction).
//
// Each query yields a measured relative error; each audit pass publishes
// the per-class maximums, the ε-headroom (measured / ε), the incremental
// cover-repair staleness ratio and the drift-detector state, and feeds
// every query outcome into a rolling SLO:
//
//	P[rel_err <= ε] >= target over the last Window query outcomes,
//
// with error-budget burn-rate accounting ((1 - compliance)/(1 - target)).
// An SLO transition into breach emits an EvSLOBreach trace instant and an
// anomaly capture through the flight recorder's slow-rebuild machinery.
//
// All draws — reservoir replacement and panel query positions — come
// from a deterministic per-stream seed, so the same stream replayed
// through the same configuration measures the same errors.
//
// The package follows the obs/trace nil-is-disabled contract: every
// method on a nil *Auditor is an allocation-free no-op, so the unaudited
// ingest path pays one pointer test.
package quality

import (
	"math"
	"math/rand"
	"time"

	"streamhist/internal/obs"
	"streamhist/internal/trace"
)

// Query classes of the audit panel, used as bounded metric label values
// and report keys.
const (
	ClassRange       = "range"
	ClassQuantile    = "quantile"
	ClassSelectivity = "selectivity"
)

// Classes lists the panel's query classes in report order.
var Classes = [3]string{ClassRange, ClassQuantile, ClassSelectivity}

// Config parameterizes an Auditor. The zero value of any field selects
// its default; Config values are copied at NewAuditor, so one Config may
// seed any number of streams.
type Config struct {
	// Interval is how many ingested points separate audit passes
	// (default 1024). Smaller intervals measure more often and cost more:
	// each pass materializes the window histogram.
	Interval int
	// Shadow is the positional ring's capacity — how many of the most
	// recent window points the auditor holds exactly (default 2048).
	// Range queries are drawn inside the shadowed suffix of the window.
	Shadow int
	// Reservoir is the whole-stream uniform sample size backing quantile
	// and selectivity shadows (default 512).
	Reservoir int
	// Seed is the base RNG seed (default 1). Each stream derives its own
	// seed from it plus the stream key, so per-stream audits are
	// independent and reproducible.
	Seed int64
	// Ranges is the number of range-sum queries per pass (default 4).
	Ranges int
	// Phis are the quantile probes per pass (default 0.5, 0.9, 0.99).
	Phis []float64
	// Selectivities is the number of selectivity queries per pass
	// (default 2).
	Selectivities int
	// SLOTarget is the objective's required compliance: the fraction of
	// rolling-window query outcomes whose measured relative error must
	// stay within ε (default 0.9).
	SLOTarget float64
	// SLOWindow is the rolling outcome window in queries (default 256).
	SLOWindow int
	// MinShadow is the smallest positional shadow an audit pass will
	// query ranges against (default 64); below it the pass skips range
	// queries rather than measure against too small an exact view.
	MinShadow int
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 1024
	}
	if c.Shadow <= 0 {
		c.Shadow = 2048
	}
	if c.Reservoir <= 0 {
		c.Reservoir = 512
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Ranges <= 0 {
		c.Ranges = 4
	}
	if len(c.Phis) == 0 {
		c.Phis = []float64{0.5, 0.9, 0.99}
	}
	if c.Selectivities <= 0 {
		c.Selectivities = 2
	}
	if c.SLOTarget <= 0 || c.SLOTarget > 1 {
		c.SLOTarget = 0.9
	}
	if c.SLOWindow <= 0 {
		c.SLOWindow = 256
	}
	if c.MinShadow <= 0 {
		c.MinShadow = 64
	}
	return c
}

// Target is the approximate side of an audit: the summaries of one
// stream, queried under that stream's lock. Implementations adapt the
// per-stream state without this package importing it.
type Target interface {
	// Epsilon is the stream's configured approximation parameter — the ε
	// of the SLO objective.
	Epsilon() float64
	// WindowLen is the number of points currently in the fixed window.
	WindowLen() int
	// RangeSum estimates the sum over window positions [lo, hi] from the
	// maintained histogram.
	RangeSum(lo, hi int) (float64, error)
	// Quantile estimates the whole-stream phi-quantile.
	Quantile(phi float64) (float64, error)
	// Selectivity estimates the fraction of stream values in [lo, hi].
	Selectivity(lo, hi float64) (float64, error)
	// Staleness is the incremental cover-repair staleness ratio: the
	// fraction of maintenance passes that ran on a possibly-stale cover
	// (incremental hits over hits+fallbacks; 0 for exact-rebuild
	// streams).
	Staleness() float64
	// DriftCheck runs one drift-detector observation against the current
	// window histogram, re-anchoring on drift, and reports the distance,
	// whether this check fired, and the detector's cumulative counts.
	DriftCheck() (dist float64, drifted bool, alarms, checks int, err error)
}

// ClassResult is one query class's outcome within a single audit pass.
type ClassResult struct {
	Queries    int     `json:"queries"`
	MaxRelErr  float64 `json:"maxRelErr"`
	MeanRelErr float64 `json:"meanRelErr"`
	SumRelErr  float64 `json:"-"`
	// Headroom is MaxRelErr / ε: below 1 the measured error sits inside
	// the contract, above 1 it has escaped.
	Headroom float64 `json:"headroom"`
}

// Report is the outcome of one audit pass.
type Report struct {
	Seen      int64   `json:"seen"`
	WindowLen int     `json:"window"`
	ShadowLen int     `json:"shadow"`
	Epsilon   float64 `json:"epsilon"`
	// MaxRelErr is the pass-wide maximum measured relative error across
	// all classes; Headroom is MaxRelErr / ε.
	MaxRelErr float64                `json:"maxRelErr"`
	Headroom  float64                `json:"headroom"`
	Classes   map[string]ClassResult `json:"classes"`
	Queries   int                    `json:"queries"`
	Breaches  int                    `json:"breaches"` // queries whose rel err exceeded ε
	Staleness float64                `json:"staleness"`
	Drift     DriftState             `json:"drift"`
}

// DriftState is the drift detector's state at audit time.
type DriftState struct {
	Distance float64 `json:"distance"`
	Drifted  bool    `json:"drifted"`
	Alarms   int     `json:"alarms"`
	Checks   int     `json:"checks"`
}

// Auditor is one stream's shadow auditor. Construct with NewAuditor; a
// nil *Auditor is the disabled instance — every method is a no-op, so
// unaudited streams carry unconditional audit calls at the cost of a
// pointer test.
type Auditor struct {
	cfg Config
	rng *rand.Rand

	// Positional shadow: a ring of the most recent points, aligned to
	// the global stream position end (the ring holds positions
	// [end-ringLen, end)). A non-contiguous batch (recovery replay the
	// auditor did not see, a restored snapshot) resets the ring; the
	// shadow regrows from live traffic.
	ring    []float64
	ringAt  int   // next write slot
	ringLen int   // valid entries
	end     int64 // global stream position after the last observed point

	// Value shadow: seeded uniform reservoir over the whole stream
	// (Vitter's Algorithm R, inlined so Insert stays allocation-free).
	sample []float64
	resCap int

	sinceAudit int
	slo        *SLO
	// passBreaches counts the in-flight pass's over-ε queries; record
	// accumulates it, Run folds it into the report and resets it.
	passBreaches int

	audits  int64
	queries int64
	// breaches counts individual panel queries whose measured relative
	// error exceeded ε, across all passes.
	breaches int64
	last     Report
	hasLast  bool
}

// NewAuditor builds an auditor from cfg, deriving all randomness from
// seed (callers mix the stream key into it for per-stream independence).
func NewAuditor(cfg Config, seed int64) *Auditor {
	cfg = cfg.withDefaults()
	return &Auditor{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(seed ^ cfg.Seed)),
		ring:   make([]float64, cfg.Shadow),
		sample: make([]float64, 0, cfg.Reservoir),
		resCap: cfg.Reservoir,
		slo:    NewSLO(cfg.SLOTarget, cfg.SLOWindow),
	}
}

// Config returns the auditor's resolved configuration (zero on nil).
func (a *Auditor) Config() Config {
	if a == nil {
		return Config{}
	}
	return a.cfg
}

// ObserveBatch feeds one applied ingest batch into the shadows. start is
// the stream's global position before the batch; a gap against the last
// observed position (points applied outside the audited path — recovery
// replay, a restore) resets the positional ring so it never misrepresents
// the window. Allocation-free; no-op on a nil auditor.
//
//streamhist:hotpath
func (a *Auditor) ObserveBatch(vs []float64, start int64) {
	if a == nil || len(vs) == 0 {
		return
	}
	if start != a.end {
		a.ringAt, a.ringLen = 0, 0
		a.end = start
	}
	for _, v := range vs {
		a.ring[a.ringAt] = v
		a.ringAt++
		if a.ringAt == len(a.ring) {
			a.ringAt = 0
		}
		if a.ringLen < len(a.ring) {
			a.ringLen++
		}
		// Reservoir step: position end (0-based) is the (end+1)-th value.
		if len(a.sample) < a.resCap {
			a.sample = append(a.sample, v)
		} else if j := a.rng.Int63n(a.end + 1); j < int64(a.resCap) {
			a.sample[j] = v
		}
		a.end++
	}
	a.sinceAudit += len(vs)
}

// Due reports whether enough points have arrived since the last audit
// pass (false on nil).
//
//streamhist:hotpath
func (a *Auditor) Due() bool {
	return a != nil && a.sinceAudit >= a.cfg.Interval
}

// ringVal returns the shadow value at global position p; valid only for
// p in [end-ringLen, end).
func (a *Auditor) ringVal(p int64) float64 {
	off := int(a.end - p) // in [1, ringLen]
	i := a.ringAt - off
	if i < 0 {
		i += len(a.ring)
	}
	return a.ring[i]
}

// relErr is the panel's error measure: |est-exact| relative to the
// exact magnitude, floored so near-zero exact answers don't explode the
// ratio (an absolute floor of 1e-9 — scenario data is real-valued
// utilization-scale, where exact sums dwarf it).
func relErr(est, exact float64) float64 {
	den := math.Abs(exact)
	if den < 1e-9 {
		den = 1e-9
	}
	return math.Abs(est-exact) / den
}

// Run executes one audit pass against t, records every query outcome in
// the SLO, publishes metrics and the EvAudit instant, and returns the
// pass report. Callers hold the stream's lock for the duration (the
// panel reads the live summaries). Breach *transition* handling (trace
// instant, capture) is the caller's, via SLO.Breaching before/after —
// see the shard engine's audit hook. No-op (zero Report) on nil.
func (a *Auditor) Run(t Target, m *Metrics, tr *trace.Recorder, shard uint8) Report {
	if a == nil {
		return Report{}
	}
	start := time.Now()
	a.sinceAudit = 0
	eps := t.Epsilon()
	rep := Report{
		Seen:      a.end,
		WindowLen: t.WindowLen(),
		ShadowLen: a.ringLen,
		Epsilon:   eps,
		Classes:   make(map[string]ClassResult, 3),
		Staleness: t.Staleness(),
	}

	var results [3]ClassResult
	a.auditRanges(t, eps, &results[0], m)
	a.auditQuantiles(t, eps, &results[1], m)
	a.auditSelectivities(t, eps, &results[2], m)
	for i, class := range Classes {
		r := results[i]
		if r.Queries > 0 {
			r.MeanRelErr = r.SumRelErr / float64(r.Queries)
			if eps > 0 {
				r.Headroom = r.MaxRelErr / eps
			}
		}
		rep.Classes[class] = r
		rep.Queries += r.Queries
		if r.MaxRelErr > rep.MaxRelErr {
			rep.MaxRelErr = r.MaxRelErr
		}
		m.setHeadroom(class, r.Headroom)
	}
	if eps > 0 {
		rep.Headroom = rep.MaxRelErr / eps
	}

	if dist, drifted, alarms, checks, derr := t.DriftCheck(); derr == nil {
		rep.Drift = DriftState{Distance: dist, Drifted: drifted, Alarms: alarms, Checks: checks}
	}

	rep.Breaches = a.passBreaches
	a.passBreaches = 0

	a.audits++
	a.queries += int64(rep.Queries)
	a.breaches += int64(rep.Breaches)
	a.last = rep
	a.hasLast = true

	dur := time.Since(start)
	m.observePass(rep, dur)
	tr.Instant(trace.EvAudit, shard, 0, dur, int64(rep.Queries), int64(rep.Breaches))
	return rep
}

// record feeds one measured query error into the SLO and the error
// tracks.
func (a *Auditor) record(class string, err, eps float64, m *Metrics) {
	ok := err <= eps
	a.slo.Record(ok)
	if !ok {
		a.passBreaches++
	}
	m.observeErr(class, err)
}

func (a *Auditor) auditRanges(t Target, eps float64, out *ClassResult, m *Metrics) {
	wl := t.WindowLen()
	shadow := a.ringLen
	if shadow > wl {
		// The window is the authority on live extent (a restore may have
		// shrunk it); never query past it.
		shadow = wl
	}
	if shadow < a.cfg.MinShadow {
		return
	}
	// Window position wl-1 is global position end-1; the shadowed suffix
	// is window positions [wl-shadow, wl-1].
	base := wl - shadow
	for q := 0; q < a.cfg.Ranges; q++ {
		// Ranges at least a quarter of the shadow: the contract covers
		// aggregate answers, and tiny ranges measure single-bucket noise.
		length := shadow/4 + int(a.rng.Int63n(int64(shadow-shadow/4)))
		if length < 1 {
			length = 1
		}
		lo := base + int(a.rng.Int63n(int64(shadow-length+1)))
		hi := lo + length - 1
		est, err := t.RangeSum(lo, hi)
		if err != nil {
			continue
		}
		exact := 0.0
		for p := lo; p <= hi; p++ {
			exact += a.ringVal(a.end - int64(wl-p))
		}
		e := relErr(est, exact)
		out.Queries++
		out.SumRelErr += e
		if e > out.MaxRelErr {
			out.MaxRelErr = e
		}
		a.record(ClassRange, e, eps, m)
	}
}

func (a *Auditor) auditQuantiles(t Target, eps float64, out *ClassResult, m *Metrics) {
	if len(a.sample) == 0 {
		return
	}
	sorted := append([]float64(nil), a.sample...)
	insertionSort(sorted)
	for _, phi := range a.cfg.Phis {
		est, err := t.Quantile(phi)
		if err != nil {
			continue
		}
		exact := sampleQuantile(sorted, phi)
		e := relErr(est, exact)
		out.Queries++
		out.SumRelErr += e
		if e > out.MaxRelErr {
			out.MaxRelErr = e
		}
		a.record(ClassQuantile, e, eps, m)
	}
}

func (a *Auditor) auditSelectivities(t Target, eps float64, out *ClassResult, m *Metrics) {
	n := len(a.sample)
	if n < 2 {
		return
	}
	lo0, hi0 := a.sample[0], a.sample[0]
	for _, v := range a.sample {
		if v < lo0 {
			lo0 = v
		}
		if v > hi0 {
			hi0 = v
		}
	}
	if hi0 <= lo0 {
		return
	}
	for q := 0; q < a.cfg.Selectivities; q++ {
		// A random sub-range of the observed value domain, at least a
		// fifth of it wide so the exact fraction is meaningfully nonzero.
		span := hi0 - lo0
		w := span/5 + a.rng.Float64()*span*4/5
		lo := lo0 + a.rng.Float64()*(span-w)
		hi := lo + w
		est, err := t.Selectivity(lo, hi)
		if err != nil {
			continue
		}
		cnt := 0
		for _, v := range a.sample {
			if v >= lo && v <= hi {
				cnt++
			}
		}
		exact := float64(cnt) / float64(n)
		// Selectivities are already normalized to [0,1]; measure the
		// absolute difference against ε rather than a ratio that explodes
		// on rare ranges.
		e := math.Abs(est - exact)
		out.Queries++
		out.SumRelErr += e
		if e > out.MaxRelErr {
			out.MaxRelErr = e
		}
		a.record(ClassSelectivity, e, eps, m)
	}
}

// insertionSort keeps the quantile shadow dependency-free; reservoirs
// are a few hundred values, where it beats sort.Float64s's overhead
// anyway.
func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// sampleQuantile is the ceil-rank quantile of a sorted sample, matching
// the GK summary's definition.
func sampleQuantile(sorted []float64, phi float64) float64 {
	rank := int(math.Ceil(phi * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// SLO returns the auditor's SLO engine (nil on a nil auditor).
func (a *Auditor) SLO() *SLO {
	if a == nil {
		return nil
	}
	return a.slo
}

// Status is the auditor's queryable state: cumulative accounting, the
// SLO's rolling view, and the last pass's report.
type Status struct {
	Audits      int64   `json:"audits"`
	Queries     int64   `json:"queries"`
	Breaches    int64   `json:"breaches"`
	Target      float64 `json:"target"`
	Window      int     `json:"window"`
	Samples     int     `json:"samples"`
	Compliance  float64 `json:"compliance"`
	BurnRate    float64 `json:"burnRate"`
	Breaching   bool    `json:"breaching"`
	SLOBreaches int64   `json:"sloBreaches"`
	LastAudit   *Report `json:"lastAudit,omitempty"`
}

// Status snapshots the auditor under the caller's lock (zero on nil).
func (a *Auditor) Status() Status {
	if a == nil {
		return Status{}
	}
	st := Status{
		Audits:      a.audits,
		Queries:     a.queries,
		Breaches:    a.breaches,
		Target:      a.slo.Target(),
		Window:      a.slo.Window(),
		Samples:     a.slo.Samples(),
		Compliance:  a.slo.Compliance(),
		BurnRate:    a.slo.BurnRate(),
		Breaching:   a.slo.Breaching(),
		SLOBreaches: a.slo.BreachCount(),
	}
	if a.hasLast {
		rep := a.last
		st.LastAudit = &rep
	}
	return st
}

// Metrics is the engine-level instrumentation the auditors publish into:
// GK-backed error-quantile tracks per query class, per-class ε-headroom
// gauges, staleness/drift gauges, and audit/breach counters. Labels are
// per class — a fixed three-value set — never per stream, so cardinality
// stays bounded no matter how many streams tenants audit. Construct with
// NewMetrics; the zero value and nil are fully disabled.
type Metrics struct {
	reg *obs.Registry

	audits      *obs.Counter
	queriesC    *obs.Counter
	breachesC   *obs.Counter
	sloBreaches *obs.Counter
	passSeconds *obs.Track

	staleness *obs.Gauge
	driftDist *obs.Gauge
	maxErr    *obs.Gauge
	headroom  *obs.Gauge

	// DriftReanchors counts detector re-anchors; shared with the HTTP
	// drift endpoint through the registry's name-dedup index.
	DriftReanchors *obs.Counter
}

// NewMetrics registers the quality series on reg (nil reg disables).
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{
		reg:         reg,
		audits:      reg.Counter("streamhist_quality_audits_total", "Accuracy audit passes completed."),
		queriesC:    reg.Counter("streamhist_quality_queries_total", "Shadow-audit panel queries replayed."),
		breachesC:   reg.Counter("streamhist_quality_query_breaches_total", "Panel queries whose measured relative error exceeded the stream's epsilon."),
		sloBreaches: reg.Counter("streamhist_slo_breaches_total", "Accuracy SLO transitions into breach."),
		passSeconds: reg.Track("streamhist_quality_audit_seconds", "Audit pass duration in seconds."),
		staleness:   reg.Gauge("streamhist_quality_staleness_ratio", "Incremental cover-repair staleness ratio of the most recently audited stream (passes on a possibly-stale cover over all passes)."),
		driftDist:   reg.Gauge("streamhist_quality_drift_distance", "Drift-detector normalized L2 distance at the most recent audit."),
		maxErr:      reg.Gauge("streamhist_quality_max_rel_err", "Maximum measured relative error of the most recent audit pass."),
		headroom:    reg.Gauge("streamhist_quality_eps_headroom", "Measured max relative error over epsilon at the most recent audit pass (>1 means the contract is breached)."),

		DriftReanchors: reg.Counter("streamhist_drift_reanchors_total", "Drift-detector alarms that re-anchored the reference histogram."),
	}
	return m
}

// observeErr feeds one query's measured error into its class track.
func (m *Metrics) observeErr(class string, err float64) {
	if m == nil || m.reg == nil {
		return
	}
	m.reg.LabeledTrack("streamhist_quality_rel_err",
		`class="`+class+`"`,
		"Measured relative error of shadow-audit queries by class (GK quantile track).").Observe(err)
}

// setHeadroom publishes one class's ε-headroom gauge.
func (m *Metrics) setHeadroom(class string, h float64) {
	if m == nil || m.reg == nil {
		return
	}
	m.reg.LabeledGauge("streamhist_quality_class_eps_headroom",
		`class="`+class+`"`,
		"Per-class measured max relative error over epsilon at the most recent audit pass.").Set(h)
}

// observePass publishes one pass's aggregates.
func (m *Metrics) observePass(rep Report, dur time.Duration) {
	if m == nil {
		return
	}
	m.audits.Inc()
	m.queriesC.Add(int64(rep.Queries))
	m.breachesC.Add(int64(rep.Breaches))
	m.passSeconds.Observe(dur.Seconds())
	m.staleness.Set(rep.Staleness)
	m.driftDist.Set(rep.Drift.Distance)
	m.maxErr.Set(rep.MaxRelErr)
	m.headroom.Set(rep.Headroom)
}

// SLOBreach counts one SLO breach transition.
func (m *Metrics) SLOBreach() {
	if m == nil {
		return
	}
	m.sloBreaches.Inc()
}
