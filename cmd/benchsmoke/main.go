// Command benchsmoke measures the fixed-window push hot path and writes
// the result as JSON. CI runs it on every change and commits the result
// as BENCH_<tag>.json, so the repository carries a trajectory of hot-path
// cost alongside the code:
//
//	go run ./cmd/benchsmoke -o BENCH_pr4.json
//
// The report covers the cold CreateList reference against the production
// exact rebuild (warm-started, memoized CreateList) at the headline
// configuration n=4096, B=12, eps=0.1 with the default growth factor
// eps/(2B), the amortized cost of the incremental cover-repair engine over
// trials spanning whole fallback periods, plus a
// scaling grid over window size and bucket budget, the attached-overhead
// of the instrumentation layers (metrics registry and flight-recorder
// tracing), and a server shard-scaling grid: end-to-end ingest latency
// through the keyed HTTP surface across 1/2/4/8 shard loops and
// 1/1k/100k live streams. The report records the machine's CPU count so
// cross-shard rows are read against the parallelism actually available.
//
// Methodology: all variants of a comparison are constructed up front,
// pushed to steady state over identical value sequences, then measured in
// interleaved trial rounds — variant A's trial k runs adjacent to variant
// B's trial k, so slow drift in machine load biases every variant
// equally rather than whichever ran last. The reported ns/op is the
// minimum over trials (the run least disturbed by noise); allocations
// are the maximum (the run most disturbed must still be zero).
//
// CI regression gate:
//
//	go run ./cmd/benchsmoke -check BENCH_pr4.json
//
// re-measures the headline configurations and fails (exit 1) if the
// production engine (result key warm_memo) regressed more than -tolerance
// (default 15%) against the committed baseline, or if either engine
// allocates more per push than its committed baseline. It also holds the
// tracing layer to its absolute budget: a detached flight recorder must
// add zero allocations and an attached one at most -trace-tolerance
// percent (default 5%) per push. It also holds the incremental engine to
// its machine-independent ratio: amortized incremental pushes must stay
// at least -incr-floor times (default 3x) faster than the warm+memo
// exact rebuild at the headline configuration, with zero steady-state
// allocations. Finally it gates multi-tenant routing
// flatness: ingest p99 on a NumCPU-matched shard configuration may grow
// at most -shard-flatness times (default 5x) from 1k to 100k live
// streams.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"streamhist"
	"streamhist/internal/core"
	"streamhist/internal/datagen"
	"streamhist/internal/resilience"
	"streamhist/internal/server"
)

// benchConfig is one benchmarked maintainer configuration, recorded in
// the output so runs stay comparable across revisions. Delta is the
// growth factor actually in effect (the default eps/(2B) is resolved and
// recorded, never left implicit).
type benchConfig struct {
	Window  int     `json:"window"`
	Buckets int     `json:"buckets"`
	Eps     float64 `json:"eps"`
	Delta   float64 `json:"delta"`
}

// measurement is one variant's aggregated trials in digestible units.
type measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
	Trials      int     `json:"trials"`
	OpsPerTrial int     `json:"ops_per_trial"`
}

// maintainer is what a runner drives: the production Maintainer or the
// cold CreateList reference.
type maintainer interface {
	Push(float64)
	PushBatch([]float64)
	Delta() float64
}

// runner is one maintainer mid-measurement: the maintainer, its private
// cursor into the shared value sequence, and its per-trial samples.
type runner struct {
	m      maintainer
	pre    func() // optional per-push bookkeeping timed with the push
	pos    int
	nsMin  float64
	allocs uint64
	bytes  uint64
}

func (r *runner) push(vals []float64, n int) {
	if r.pre != nil {
		for i := 0; i < n; i++ {
			r.pre()
			r.m.Push(vals[r.pos%len(vals)])
			r.pos++
		}
		return
	}
	for i := 0; i < n; i++ {
		r.m.Push(vals[r.pos%len(vals)])
		r.pos++
	}
}

// measureInterleaved drives all runners through warmup plus trials
// rounds of ops pushes each, interleaving the rounds across runners, and
// folds each runner's samples into a measurement. Every runner consumes
// the identical value sequence (they advance their cursors in lockstep).
func measureInterleaved(rs []*runner, vals []float64, trials, warmup, ops int) []measurement {
	for _, r := range rs {
		r.push(vals, warmup)
		r.nsMin = 0
	}
	var ms runtime.MemStats
	for t := 0; t < trials; t++ {
		for _, r := range rs {
			runtime.ReadMemStats(&ms)
			m0, b0 := ms.Mallocs, ms.TotalAlloc
			start := time.Now()
			r.push(vals, ops)
			elapsed := time.Since(start)
			runtime.ReadMemStats(&ms)
			ns := float64(elapsed.Nanoseconds()) / float64(ops)
			if r.nsMin == 0 || ns < r.nsMin {
				r.nsMin = ns
			}
			if a := (ms.Mallocs - m0) / uint64(ops); a > r.allocs {
				r.allocs = a
			}
			if by := (ms.TotalAlloc - b0) / uint64(ops); by > r.bytes {
				r.bytes = by
			}
		}
	}
	out := make([]measurement, len(rs))
	for i, r := range rs {
		out[i] = measurement{
			NsPerOp:     r.nsMin,
			AllocsPerOp: r.allocs,
			BytesPerOp:  r.bytes,
			Trials:      trials,
			OpsPerTrial: ops,
		}
	}
	return out
}

// utilValues pre-generates the quantized Utilization trace all runners
// share.
func utilValues(n int) []float64 {
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 17, Quantize: true})
	return datagen.Series(g, n)
}

// newRunner builds a steady-state production maintainer, window filled
// in one batch from the front of vals. delta <= 0 selects the default
// eps/(2B).
func newRunner(cfg benchConfig, delta float64, reg *streamhist.Metrics, vals []float64, extra ...streamhist.Option) (*runner, error) {
	opts := append([]streamhist.Option{streamhist.WithMetrics(reg)}, extra...)
	if delta > 0 {
		opts = append(opts, streamhist.WithDelta(delta))
	}
	m, err := streamhist.NewFixedWindow(cfg.Window, cfg.Buckets, cfg.Eps, opts...)
	if err != nil {
		return nil, err
	}
	m.PushBatch(vals[:cfg.Window])
	return &runner{m: m, pos: cfg.Window}, nil
}

// newReferenceRunner is newRunner for the cold CreateList reference.
func newReferenceRunner(cfg benchConfig, delta float64, vals []float64) (*runner, error) {
	if delta <= 0 {
		delta = cfg.Eps / (2 * float64(cfg.Buckets))
	}
	ref, err := core.NewReference(cfg.Window, cfg.Buckets, cfg.Eps, delta, false)
	if err != nil {
		return nil, err
	}
	ref.PushBatch(vals[:cfg.Window])
	return &runner{m: ref, pos: cfg.Window}, nil
}

// measureEngines measures the reference and the production exact rebuild
// at one benchConfig, interleaved, and returns them plus the resolved
// growth factor.
func measureEngines(cfg benchConfig, delta float64, trials, warmup, ops int) (ref, prod measurement, resolved float64, err error) {
	vals := utilValues(cfg.Window + warmup + trials*ops)
	rr, err := newReferenceRunner(cfg, delta, vals)
	if err != nil {
		return ref, prod, 0, err
	}
	rp, err := newRunner(cfg, delta, nil, vals)
	if err != nil {
		return ref, prod, 0, err
	}
	ms := measureInterleaved([]*runner{rr, rp}, vals, trials, warmup, ops)
	return ms[0], ms[1], rp.m.Delta(), nil
}

// measureIncremental measures the incremental cover-repair engine at the
// headline configuration against the exact-rebuild baseline it falls
// back to. Unlike the variant table, trials span whole fallback
// periods: the incremental engine's cost is bimodal — cheap repair passes
// punctuated by a scheduled exact rebuild every K pushes — so each trial
// pushes 2K continuous points (always exactly two scheduled rebuilds, at
// any phase) and min-of-trials stays an honest amortized number, where
// the variant table's short trials would systematically dodge the
// scheduled rebuilds and flatter the engine.
func measureIncremental(trials int) (wm, incr measurement, fullEvery int, err error) {
	cfg := benchConfig{Window: 4096, Buckets: 12, Eps: 0.1}
	// The fallback period the engine derives at the default growth
	// factor: K = 1/(2*delta) with delta = eps/(2B), i.e. K = B/eps. The
	// trial length is two periods, so every trial covers whole periods.
	fullEvery = int(float64(cfg.Buckets) / cfg.Eps)
	ops := 2 * fullEvery
	vals := utilValues(cfg.Window + (trials+1)*ops)
	rw, err := newRunner(cfg, 0, nil, vals)
	if err != nil {
		return wm, incr, 0, err
	}
	ri, err := newRunner(cfg, 0, nil, vals, streamhist.WithIncrementalRebuild(true))
	if err != nil {
		return wm, incr, 0, err
	}
	ms := measureInterleaved([]*runner{rw, ri}, vals, trials, ops, ops)
	return ms[0], ms[1], fullEvery, nil
}

// scalingRow is one cell of the window-size x bucket-budget grid: the
// cold reference against the production exact rebuild.
type scalingRow struct {
	benchConfig
	ColdNs     float64 `json:"cold_ns_per_op"`
	WarmMemoNs float64 `json:"warm_memo_ns_per_op"`
	Speedup    float64 `json:"speedup"`
}

func scalingGrid(trials, warmup, ops int) ([]scalingRow, error) {
	// The grid runs at delta=0.1 rather than the default eps/(2B): the
	// cells characterize how the engine scales with n and B, and the
	// tiny default delta would make the large cells dominate the whole
	// benchmark's runtime without adding information the headline
	// doesn't already carry.
	const (
		eps   = 0.1
		delta = 0.1
	)
	var rows []scalingRow
	for _, n := range []int{1024, 4096, 16384} {
		vals := utilValues(n + warmup + trials*ops)
		for _, b := range []int{8, 12, 16} {
			cfg := benchConfig{Window: n, Buckets: b, Eps: eps, Delta: delta}
			cold, err := newReferenceRunner(cfg, delta, vals)
			if err != nil {
				return nil, err
			}
			wm, err := newRunner(cfg, delta, nil, vals)
			if err != nil {
				return nil, err
			}
			ms := measureInterleaved([]*runner{cold, wm}, vals, trials, warmup, ops)
			rows = append(rows, scalingRow{
				benchConfig: cfg,
				ColdNs:      ms[0].NsPerOp,
				WarmMemoNs:  ms[1].NsPerOp,
				Speedup:     ms[0].NsPerOp / ms[1].NsPerOp,
			})
		}
	}
	return rows, nil
}

// metricsOverhead measures the product configuration with instrumentation
// detached and attached. The detached number is guarded by the project's
// performance budget: metrics that are off must cost nothing but nil
// checks and add zero allocations.
//
// The overhead is a ratio of two nearly equal costs, so it gets stricter
// methodology than the variant tables: the two maintainers are timed in
// paired rounds (sharing each round's noise environment), the order
// within a round alternates (so neither side systematically enjoys a
// warmer cache or a calmer scheduler), and the reported percentage is
// the median of the per-round ratios — min-of-trials would compare each
// side's luckiest moment, which on a busy machine measures luck.
func metricsOverhead(rounds, warmup, ops int) (off, on measurement, pct float64, err error) {
	cfg := benchConfig{Window: 1024, Buckets: 12, Eps: 0.1, Delta: 0.1}
	vals := utilValues(cfg.Window + warmup + rounds*ops)
	roff, err := newRunner(cfg, cfg.Delta, nil, vals)
	if err != nil {
		return off, on, 0, err
	}
	ron, err := newRunner(cfg, cfg.Delta, streamhist.NewMetrics(), vals)
	if err != nil {
		return off, on, 0, err
	}
	off, on, pct = pairedOverhead(roff, ron, vals, rounds, warmup, ops)
	return off, on, pct, nil
}

// traceOverhead is metricsOverhead for the flight recorder: the product
// configuration with no tracer against one recording into a 4096-event
// ring, under the same paired-round methodology. The detached side is
// the budget guard — tracing that is off must add zero allocations —
// and the attached side's median overhead is what CI gates at ≤5%.
func traceOverhead(rounds, warmup, ops int) (off, on measurement, pct float64, err error) {
	cfg := benchConfig{Window: 1024, Buckets: 12, Eps: 0.1, Delta: 0.1}
	vals := utilValues(cfg.Window + warmup + rounds*ops)
	roff, err := newRunner(cfg, cfg.Delta, nil, vals)
	if err != nil {
		return off, on, 0, err
	}
	tr, err := streamhist.NewTracer(4096)
	if err != nil {
		return off, on, 0, err
	}
	ron, err := newRunner(cfg, cfg.Delta, nil, vals, streamhist.WithTracing(tr))
	if err != nil {
		return off, on, 0, err
	}
	off, on, pct = pairedOverhead(roff, ron, vals, rounds, warmup, ops)
	return off, on, pct, nil
}

// resilienceOverhead is traceOverhead for the self-healing layer: the
// product configuration bare against one paying, per push, the
// bookkeeping the server's armed healthy breaker adds to the ingest hot
// path (a degraded-flag load plus a breaker Success — charged per push
// though the server pays it per batch, a deliberate upper bound). The
// median overhead is what CI gates at ≤2%, and the armed side must add
// zero allocations over the bare one.
func resilienceOverhead(rounds, warmup, ops int) (off, on measurement, pct float64, err error) {
	cfg := benchConfig{Window: 1024, Buckets: 12, Eps: 0.1, Delta: 0.1}
	vals := utilValues(cfg.Window + warmup + rounds*ops)
	roff, err := newRunner(cfg, cfg.Delta, nil, vals)
	if err != nil {
		return off, on, 0, err
	}
	ron, err := newRunner(cfg, cfg.Delta, nil, vals)
	if err != nil {
		return off, on, 0, err
	}
	br := resilience.NewBreaker(resilience.BreakerConfig{
		Threshold: 3, Backoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second,
	})
	var degraded atomic.Bool
	ron.pre = func() {
		if !degraded.Load() {
			br.Success()
		}
	}
	off, on, pct = pairedOverhead(roff, ron, vals, rounds, warmup, ops)
	return off, on, pct, nil
}

// pairedOverhead times roff and ron in paired rounds with alternating
// order and returns their measurements plus the median per-round
// overhead percentage of ron against roff.
func pairedOverhead(roff, ron *runner, vals []float64, rounds, warmup, ops int) (off, on measurement, pct float64) {
	roff.push(vals, warmup)
	ron.push(vals, warmup)

	timed := func(r *runner) (float64, uint64, uint64) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m0, b0 := ms.Mallocs, ms.TotalAlloc
		start := time.Now()
		r.push(vals, ops)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms)
		return float64(elapsed.Nanoseconds()) / float64(ops),
			(ms.Mallocs - m0) / uint64(ops), (ms.TotalAlloc - b0) / uint64(ops)
	}
	record := func(m *measurement, ns float64, allocs, bytes uint64) {
		if m.NsPerOp == 0 || ns < m.NsPerOp {
			m.NsPerOp = ns
		}
		if allocs > m.AllocsPerOp {
			m.AllocsPerOp = allocs
		}
		if bytes > m.BytesPerOp {
			m.BytesPerOp = bytes
		}
	}
	off = measurement{Trials: rounds, OpsPerTrial: ops}
	on = measurement{Trials: rounds, OpsPerTrial: ops}
	pcts := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		var offNs, onNs float64
		if r%2 == 0 {
			ns, a, by := timed(roff)
			offNs = ns
			record(&off, ns, a, by)
			ns, a, by = timed(ron)
			onNs = ns
			record(&on, ns, a, by)
		} else {
			ns, a, by := timed(ron)
			onNs = ns
			record(&on, ns, a, by)
			ns, a, by = timed(roff)
			offNs = ns
			record(&off, ns, a, by)
		}
		pcts = append(pcts, 100*(onNs-offNs)/offNs)
	}
	sort.Float64s(pcts)
	pct = pcts[len(pcts)/2]
	if len(pcts)%2 == 0 {
		pct = (pcts[len(pcts)/2-1] + pcts[len(pcts)/2]) / 2
	}
	return off, on, pct
}

// shardRow is one cell of the server shard-scaling grid: end-to-end
// /v1/streams/{key}/ingest latency through the full handler chain (parse,
// admission, shard hand-off, apply, JSON reply) on a memory-only server
// with the given shard-loop and live-stream counts.
type shardRow struct {
	Shards int     `json:"shards"`
	Keys   int     `json:"keys"`
	P50Ns  float64 `json:"push_p50_ns"`
	P99Ns  float64 `json:"push_p99_ns"`
}

// measureShardCell seeds a keyed server with keys streams and samples
// single-value ingest latency round-robin across them.
func measureShardCell(shards, keys, samples int) (shardRow, error) {
	row := shardRow{Shards: shards, Keys: keys}
	// Tiny windows: the cell characterizes routing and hand-off cost as
	// tenant count grows, not rebuild cost.
	s, err := server.Open(server.Options{Window: 64, Buckets: 4, Eps: 0.2, Delta: 0.2, Shards: shards})
	if err != nil {
		return row, err
	}
	defer func() { _ = s.Close() }()
	ingest := func(key, body string) error {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
			"/v1/streams/"+key+"/ingest", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("shards=%d keys=%d: ingest %s: status %d", shards, keys, key, rec.Code)
		}
		return nil
	}
	keyNames := make([]string, keys)
	for i := range keyNames {
		keyNames[i] = "k" + strconv.Itoa(i)
		if err := ingest(keyNames[i], "1\n"); err != nil {
			return row, err
		}
	}
	// Seeding 100k streams leaves the heap due for a collection; take it
	// now and warm the measured path so the samples see steady state, not
	// the garbage of setup.
	runtime.GC()
	for i := 0; i < 200; i++ {
		if err := ingest(keyNames[i%keys], "2\n"); err != nil {
			return row, err
		}
	}
	lat := make([]float64, 0, samples)
	for i := 0; i < samples; i++ {
		key := keyNames[i%keys]
		start := time.Now()
		if err := ingest(key, "2\n"); err != nil {
			return row, err
		}
		lat = append(lat, float64(time.Since(start).Nanoseconds()))
	}
	sort.Float64s(lat)
	row.P50Ns = lat[len(lat)/2]
	row.P99Ns = lat[len(lat)*99/100]
	return row, nil
}

// shardGrid measures the shard-count x key-count grid. The interesting
// read is down a column: per-request latency must stay flat as live
// streams grow 1 -> 100k (hash routing is O(1)), on any machine — the
// report records cpus so cross-shard rows are interpreted against the
// parallelism that was actually available.
func shardGrid(samples int) ([]shardRow, error) {
	var rows []shardRow
	for _, shards := range []int{1, 2, 4, 8} {
		for _, keys := range []int{1, 1000, 100000} {
			row, err := measureShardCell(shards, keys, samples)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// report is the full JSON document benchsmoke emits and -check consumes.
type report struct {
	Bench           string                 `json:"bench"`
	Goos            string                 `json:"goos"`
	Goarch          string                 `json:"goarch"`
	Cpus            int                    `json:"cpus"`
	Stream          string                 `json:"stream"`
	Aggregation     string                 `json:"aggregation"`
	Config          benchConfig            `json:"config"`
	Results         map[string]measurement `json:"results"`
	SpeedupWarmMemo float64                `json:"speedup_warm_memo_vs_cold"`
	// The incremental section uses its own long-trial methodology (see
	// measureIncremental), so its warm+memo reference is re-measured under
	// the same trials rather than copied from Results.
	Incremental           measurement  `json:"incremental"`
	IncrementalBaseline   measurement  `json:"incremental_warm_memo_baseline"`
	SpeedupIncremental    float64      `json:"speedup_incremental_vs_warm_memo"`
	IncrementalFullEvery  int          `json:"incremental_full_every"`
	MetricsOff            measurement  `json:"metrics_off"`
	MetricsOn             measurement  `json:"metrics_on"`
	MetricsOverheadPct    float64      `json:"metrics_overhead_pct"`
	TraceOff              measurement  `json:"trace_off"`
	TraceOn               measurement  `json:"trace_on"`
	TraceOverheadPct      float64      `json:"trace_overhead_pct"`
	ResilienceOff         measurement  `json:"resilience_off"`
	ResilienceOn          measurement  `json:"resilience_on"`
	ResilienceOverheadPct float64      `json:"resilience_overhead_pct"`
	Scaling               []scalingRow `json:"scaling"`
	ShardScaling          []shardRow   `json:"shard_scaling"`
}

// headline measures the reference and the production exact rebuild at
// the configuration the README quotes: n=4096, B=12, eps=0.1 at the
// default growth factor. The result keys are the cold and warm_memo
// variants of earlier reports, so -check gates against them unchanged.
func headline(trials, warmup, ops int) (map[string]measurement, benchConfig, error) {
	cfg := benchConfig{Window: 4096, Buckets: 12, Eps: 0.1}
	ref, prod, delta, err := measureEngines(cfg, 0, trials, warmup, ops)
	cfg.Delta = delta
	return map[string]measurement{"cold": ref, "warm_memo": prod}, cfg, err
}

// gateFailure is one tripped -check gate, named so a CI log grep for
// the gate identifier lands on the exact budget that failed with its
// measured-vs-floor values, instead of a needle-in-haystack scan.
type gateFailure struct {
	gate   string // stable identifier, e.g. "incr_speedup_floor"
	detail string // measured value against its floor/budget
}

func check(baselinePath string, tolerancePct, traceTolerancePct, resilienceTolerancePct, shardFlatness, incrFloor float64) error {
	blob, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(blob, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", baselinePath, err)
	}
	results, _, err := headline(3, 2, 6)
	if err != nil {
		return err
	}
	var failures []gateFailure
	for name, now := range results {
		was, ok := base.Results[name]
		if !ok {
			continue
		}
		if now.AllocsPerOp > was.AllocsPerOp {
			failures = append(failures, gateFailure{"alloc_budget/" + name, fmt.Sprintf(
				"measured %d allocs/op, baseline %d", now.AllocsPerOp, was.AllocsPerOp)})
		}
		fmt.Printf("benchsmoke: %-10s %12.0f ns/op (baseline %12.0f, %+.1f%%), %d allocs/op\n",
			name, now.NsPerOp, was.NsPerOp, 100*(now.NsPerOp-was.NsPerOp)/was.NsPerOp, now.AllocsPerOp)
	}
	// The latency gate covers only the production engine: the reference
	// exists as the ablation baseline and its committed number is
	// documentation, not a budget.
	now, was := results["warm_memo"], base.Results["warm_memo"]
	if was.NsPerOp > 0 {
		if pct := 100 * (now.NsPerOp - was.NsPerOp) / was.NsPerOp; pct > tolerancePct {
			failures = append(failures, gateFailure{"warm_memo_latency", fmt.Sprintf(
				"measured %.0f ns/op, %.1f%% over baseline %.0f (tolerance %.0f%%)",
				now.NsPerOp, pct, was.NsPerOp, tolerancePct)})
		}
	}
	// The incremental gate is a machine-independent ratio, re-measured
	// whole: amortized incremental pushes must stay at least -incr-floor
	// times faster than the warm+memo exact rebuild at the headline
	// configuration, with zero steady-state allocations.
	wmRef, incr, fullEvery, err := measureIncremental(3)
	if err != nil {
		return err
	}
	incrSpeedup := wmRef.NsPerOp / incr.NsPerOp
	fmt.Printf("benchsmoke: incremental %12.0f ns/push amortized (warm+memo %12.0f, x%.1f, floor x%.1f, K=%d), %d allocs/op\n",
		incr.NsPerOp, wmRef.NsPerOp, incrSpeedup, incrFloor, fullEvery, incr.AllocsPerOp)
	if incrSpeedup < incrFloor {
		failures = append(failures, gateFailure{"incr_speedup_floor", fmt.Sprintf(
			"measured x%.2f amortized speedup over warm+memo, floor x%.1f", incrSpeedup, incrFloor)})
	}
	if incr.AllocsPerOp > 0 {
		failures = append(failures, gateFailure{"incr_alloc_budget", fmt.Sprintf(
			"measured %d allocs/op steady state, budget 0", incr.AllocsPerOp)})
	}
	// The tracing budget is absolute, not relative to the baseline file:
	// a detached flight recorder must add zero allocations, and an
	// attached one must cost at most -trace-tolerance percent per push.
	offT, _, tracePct, err := traceOverhead(10, 10, 100)
	if err != nil {
		return err
	}
	fmt.Printf("benchsmoke: trace overhead %+.1f%% (budget %.0f%%), trace-off %d allocs/op\n",
		tracePct, traceTolerancePct, offT.AllocsPerOp)
	if offT.AllocsPerOp > 0 {
		failures = append(failures, gateFailure{"trace_detached_alloc_budget", fmt.Sprintf(
			"measured %d allocs/op with tracing off, budget 0", offT.AllocsPerOp)})
	}
	if tracePct > traceTolerancePct {
		failures = append(failures, gateFailure{"trace_overhead_budget", fmt.Sprintf(
			"measured +%.1f%% per push with tracing on, budget %.0f%%", tracePct, traceTolerancePct)})
	}
	// The resilience budget is likewise absolute: an armed healthy
	// breaker may cost at most -resilience-tolerance percent per push
	// and must add zero allocations over the bare path.
	offR, onR, resiliencePct, err := resilienceOverhead(10, 10, 100)
	if err != nil {
		return err
	}
	fmt.Printf("benchsmoke: resilience overhead %+.1f%% (budget %.0f%%), armed adds %d allocs/op\n",
		resiliencePct, resilienceTolerancePct, onR.AllocsPerOp-min(onR.AllocsPerOp, offR.AllocsPerOp))
	if onR.AllocsPerOp > offR.AllocsPerOp {
		failures = append(failures, gateFailure{"resilience_alloc_budget", fmt.Sprintf(
			"measured %d allocs/op armed over bare %d, budget 0", onR.AllocsPerOp, offR.AllocsPerOp)})
	}
	if resiliencePct > resilienceTolerancePct {
		failures = append(failures, gateFailure{"resilience_overhead_budget", fmt.Sprintf(
			"measured +%.1f%% per push armed, budget %.0f%%", resiliencePct, resilienceTolerancePct)})
	}
	// Multi-tenant flatness: ingest p99 must not grow with the live-stream
	// count — routing is a hash, not a scan. The gate is NumCPU-aware: it
	// re-measures one shard configuration matched to this machine rather
	// than comparing against another machine's committed absolute numbers.
	shards := runtime.NumCPU()
	if shards > 4 {
		shards = 4
	}
	small, err := measureShardCell(shards, 1000, 2000)
	if err != nil {
		return err
	}
	large, err := measureShardCell(shards, 100000, 2000)
	if err != nil {
		return err
	}
	ratio := large.P99Ns / small.P99Ns
	fmt.Printf("benchsmoke: shard grid (shards=%d, cpus=%d): ingest p99 %0.f ns @1k keys, %.0f ns @100k keys (x%.2f, budget x%.1f)\n",
		shards, runtime.NumCPU(), small.P99Ns, large.P99Ns, ratio, shardFlatness)
	if ratio > shardFlatness {
		failures = append(failures, gateFailure{"shard_flatness_budget", fmt.Sprintf(
			"measured ingest p99 growth x%.2f from 1k to 100k streams, budget x%.1f", ratio, shardFlatness)})
	}
	if len(failures) > 0 {
		names := make([]string, len(failures))
		for i, f := range failures {
			names[i] = f.gate
			fmt.Fprintf(os.Stderr, "benchsmoke: REGRESSION [%s]: %s\n", f.gate, f.detail)
		}
		return fmt.Errorf("%d gate(s) failed against %s: %s",
			len(failures), baselinePath, strings.Join(names, ", "))
	}
	fmt.Printf("benchsmoke: no regressions against %s\n", baselinePath)
	return nil
}

func run(outPath string) error {
	results, cfg, err := headline(5, 2, 8)
	if err != nil {
		return err
	}
	wmRef, incr, fullEvery, err := measureIncremental(4)
	if err != nil {
		return err
	}
	offM, onM, overheadPct, err := metricsOverhead(10, 10, 100)
	if err != nil {
		return err
	}
	offT, onT, tracePct, err := traceOverhead(10, 10, 100)
	if err != nil {
		return err
	}
	offR, onR, resiliencePct, err := resilienceOverhead(10, 10, 100)
	if err != nil {
		return err
	}
	grid, err := scalingGrid(4, 1, 6)
	if err != nil {
		return err
	}
	shardRows, err := shardGrid(2000)
	if err != nil {
		return err
	}
	rep := report{
		Bench:                 "FixedWindow.Push",
		Goos:                  runtime.GOOS,
		Goarch:                runtime.GOARCH,
		Cpus:                  runtime.NumCPU(),
		Stream:                "utilization(seed=17,quantize)",
		Aggregation:           "interleaved trials, min ns/op, max allocs",
		Config:                cfg,
		Results:               results,
		SpeedupWarmMemo:       results["cold"].NsPerOp / results["warm_memo"].NsPerOp,
		Incremental:           incr,
		IncrementalBaseline:   wmRef,
		SpeedupIncremental:    wmRef.NsPerOp / incr.NsPerOp,
		IncrementalFullEvery:  fullEvery,
		MetricsOff:            offM,
		MetricsOn:             onM,
		MetricsOverheadPct:    overheadPct,
		TraceOff:              offT,
		TraceOn:               onT,
		TraceOverheadPct:      tracePct,
		ResilienceOff:         offR,
		ResilienceOn:          onR,
		ResilienceOverheadPct: resiliencePct,
		Scaling:               grid,
		ShardScaling:          shardRows,
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if outPath == "" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	if err := os.WriteFile(outPath, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchsmoke: wrote %s (cold %.0f ns/op, warm+memo %.0f ns/op, speedup %.2fx; incremental %.0f ns/push amortized, %.2fx over warm+memo)\n",
		outPath, rep.Results["cold"].NsPerOp, rep.Results["warm_memo"].NsPerOp, rep.SpeedupWarmMemo,
		rep.Incremental.NsPerOp, rep.SpeedupIncremental)
	return nil
}

func main() {
	out := flag.String("o", "", "output path (default stdout)")
	checkPath := flag.String("check", "", "baseline report to gate against instead of emitting a new one")
	tolerance := flag.Float64("tolerance", 15, "allowed warm_memo ns/op regression in percent (-check mode)")
	traceTolerance := flag.Float64("trace-tolerance", 5, "allowed per-push overhead of an attached flight recorder in percent (-check mode)")
	resilienceTolerance := flag.Float64("resilience-tolerance", 2, "allowed per-push overhead of an armed healthy circuit breaker in percent (-check mode)")
	shardFlatness := flag.Float64("shard-flatness", 5, "allowed ingest p99 growth factor from 1k to 100k live streams (-check mode)")
	incrFloor := flag.Float64("incr-floor", 3, "required amortized speedup of incremental cover repair over warm+memo at the headline configuration (-check mode)")
	flag.Parse()

	var err error
	if *checkPath != "" {
		err = check(*checkPath, *tolerance, *traceTolerance, *resilienceTolerance, *shardFlatness, *incrFloor)
	} else {
		err = run(*out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsmoke:", err)
		os.Exit(1)
	}
}
