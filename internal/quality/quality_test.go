package quality

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"streamhist/internal/obs"
	"streamhist/internal/trace"
)

// fakeTarget serves exact answers from a slice with a configurable
// injected error, so tests control the measured error precisely. The
// slice is its window too.
type fakeTarget struct {
	vals []float64
	eps  float64
	skew float64 // multiplicative error injected into every answer
}

func (f *fakeTarget) Epsilon() float64    { return f.eps }
func (f *fakeTarget) Seen() int64         { return int64(len(f.vals)) }
func (f *fakeTarget) WindowLen() int      { return len(f.vals) }
func (f *fakeTarget) Value(i int) float64 { return f.vals[i] }

func (f *fakeTarget) RangeSum(lo, hi int) (float64, error) {
	s := 0.0
	for i := lo; i <= hi && i < len(f.vals); i++ {
		s += f.vals[i]
	}
	return s * (1 + f.skew), nil
}

func (f *fakeTarget) Quantile(phi float64) (float64, error) {
	sorted := append([]float64(nil), f.vals...)
	insertionSort(sorted)
	return sampleQuantile(sorted, phi) * (1 + f.skew), nil
}

func (f *fakeTarget) Selectivity(lo, hi float64) (float64, error) {
	cnt := 0
	for _, v := range f.vals {
		if v >= lo && v <= hi {
			cnt++
		}
	}
	return float64(cnt) / float64(len(f.vals)) * (1 + f.skew), nil
}

func (f *fakeTarget) Staleness() float64 { return 0.25 }

func (f *fakeTarget) DriftCheck() (DriftState, error) {
	return DriftState{Distance: 0.01, Checks: 1}, nil
}

func series(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 100 + 50*rng.Float64()
	}
	return vals
}

// TestAuditDeterminism: the satellite contract — the same seed and the
// same stream must measure the same errors, query for query.
func TestAuditDeterminism(t *testing.T) {
	vals := series(7, 4096)
	run := func() Report {
		a := NewAuditor(1024, 42)
		a.ObserveBatch(vals)
		return a.Run(&fakeTarget{vals: vals, eps: 0.05, skew: 0.01}, nil, nil, 0)
	}
	r1, r2 := run(), run()
	if r1.Queries == 0 {
		t.Fatal("audit pass ran no queries")
	}
	if r1.MaxRelErr != r2.MaxRelErr || r1.Headroom != r2.Headroom {
		t.Fatalf("non-deterministic audit: %+v vs %+v", r1, r2)
	}
	for _, class := range Classes {
		c1, c2 := r1.Classes[class], r2.Classes[class]
		if c1 != c2 {
			t.Fatalf("class %s differs across identical runs: %+v vs %+v", class, c1, c2)
		}
	}

	// A different seed must draw a different panel (range positions), so
	// at least the range class should measure differently on skewed data.
	a3 := NewAuditor(1024, 43)
	a3.ObserveBatch(vals)
	r3 := a3.Run(&fakeTarget{vals: vals, eps: 0.05, skew: 0.01}, nil, nil, 0)
	if r3.Classes[ClassRange] == r1.Classes[ClassRange] &&
		r3.Classes[ClassSelectivity] == r1.Classes[ClassSelectivity] {
		t.Fatal("different seeds drew an identical panel — RNG not wired through")
	}
}

// TestAuditMeasuresInjectedError: a target that skews every answer by s
// must be measured at relative error ≈ s by the range/quantile panel.
func TestAuditMeasuresInjectedError(t *testing.T) {
	vals := series(11, 4096)
	const skew = 0.02
	a := NewAuditor(DefaultInterval, 1)
	a.ObserveBatch(vals)
	rep := a.Run(&fakeTarget{vals: vals, eps: 0.05, skew: skew}, nil, nil, 0)

	rc := rep.Classes[ClassRange]
	if rc.Queries == 0 {
		t.Fatal("no range queries ran")
	}
	if math.Abs(rc.MaxRelErr-skew) > 1e-9 {
		t.Fatalf("range class measured %g, want the injected %g", rc.MaxRelErr, skew)
	}
	// Quantiles are measured against the reservoir, not the full stream,
	// so sampling error stacks on the injected skew — bound loosely.
	qc := rep.Classes[ClassQuantile]
	if qc.Queries == 0 || qc.MaxRelErr < skew/2 || qc.MaxRelErr > 0.25 {
		t.Fatalf("quantile class measured %+v, want roughly the injected %g", qc, skew)
	}
	if rep.Headroom < rc.MaxRelErr/0.05 {
		t.Fatalf("headroom %g below the range class's own %g", rep.Headroom, rc.MaxRelErr/0.05)
	}
	if rep.Staleness != 0.25 {
		t.Fatalf("staleness %g not forwarded from target", rep.Staleness)
	}
}

// TestRangeTruthIsTheWindow: range probes are checked against the
// target's own window values, not against anything the auditor observed,
// so an auditor that has seen nothing (a stream restored from a snapshot,
// or recovered from a checkpoint with no log tail) still measures ranges
// exactly, and a report's position is the stream's, not the auditor's.
func TestRangeTruthIsTheWindow(t *testing.T) {
	vals := series(13, 512)
	a := NewAuditor(DefaultInterval, 1)
	rep := a.Run(&fakeTarget{vals: vals, eps: 0.05}, nil, nil, 0)
	rc := rep.Classes[ClassRange]
	if rc.Queries != rangeQueries || rc.MaxRelErr > 1e-12 {
		t.Fatalf("range class %+v against the window it reads, want %d exact probes", rc, rangeQueries)
	}
	if rep.Seen != 512 || rep.WindowLen != 512 {
		t.Fatalf("report at seen=%d window=%d, want the target's 512 and 512", rep.Seen, rep.WindowLen)
	}
	if q := rep.Classes[ClassQuantile].Queries; q != 0 {
		t.Fatalf("%d quantile probes against an empty reservoir", q)
	}
	// Below minWindow the range class is skipped.
	rep = a.Run(&fakeTarget{vals: vals[:minWindow-1], eps: 0.05}, nil, nil, 0)
	if q := rep.Classes[ClassRange].Queries; q != 0 {
		t.Fatalf("%d range probes on a %d-point window", q, minWindow-1)
	}
}

// TestNilAuditorZeroCost: the unaudited push path carries unconditional
// ObserveBatch/Due calls; they must not allocate.
func TestNilAuditorZeroCost(t *testing.T) {
	var a *Auditor
	vals := []float64{1, 2, 3, 4}
	allocs := testing.AllocsPerRun(1000, func() {
		a.ObserveBatch(vals)
		if a.Due() {
			t.Fatal("nil auditor due")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil auditor path allocates %v per op, want 0", allocs)
	}
}

// TestObserveBatchSteadyStateAllocs: once the reservoir is full, feeding
// the shadows must be allocation-free.
func TestObserveBatchSteadyStateAllocs(t *testing.T) {
	a := NewAuditor(1<<30, 1)
	a.ObserveBatch(series(3, 2*reservoirSize)) // fill the reservoir
	vals := []float64{5, 6, 7, 8}
	allocs := testing.AllocsPerRun(1000, func() {
		a.ObserveBatch(vals)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ObserveBatch allocates %v per op, want 0", allocs)
	}
}

func TestDueInterval(t *testing.T) {
	a := NewAuditor(10, 1)
	a.ObserveBatch(series(1, 9))
	if a.Due() {
		t.Fatal("due before interval")
	}
	a.ObserveBatch([]float64{1})
	if !a.Due() {
		t.Fatal("not due at interval")
	}
	a.Run(&fakeTarget{vals: series(1, 10), eps: 1}, nil, nil, 0)
	if a.Due() {
		t.Fatal("still due right after a pass")
	}
}

func TestSLOBreachAndRecovery(t *testing.T) {
	s := NewSLO(0.9, 40)
	// Fill above target: 35 good, 2 bad -> compliance ~0.946.
	for i := 0; i < 35; i++ {
		s.Record(true)
	}
	s.Record(false)
	s.Record(false)
	if s.Breaching() {
		t.Fatalf("breaching at compliance %g >= 0.9", s.Compliance())
	}
	// Push failures until compliance crosses below target.
	for i := 0; i < 4; i++ {
		s.Record(false)
	}
	if !s.Breaching() {
		t.Fatalf("not breaching at compliance %g < 0.9", s.Compliance())
	}
	if s.BreachCount() != 1 {
		t.Fatalf("breach count %d, want 1", s.BreachCount())
	}
	if br := s.BurnRate(); br <= 1 {
		t.Fatalf("burn rate %g, want > 1 while in breach", br)
	}
	// Recover: good outcomes displace the failures.
	for i := 0; i < 40; i++ {
		s.Record(true)
	}
	if s.Breaching() {
		t.Fatal("still breaching after full recovery window")
	}
	if s.BreachCount() != 1 {
		t.Fatalf("breach count %d after recovery, want 1 (no new episode)", s.BreachCount())
	}
	if c := s.Compliance(); c != 1 {
		t.Fatalf("compliance %g after recovery, want 1", c)
	}
}

func TestSLOMinEvalFloor(t *testing.T) {
	s := NewSLO(0.99, 100)
	// A lone early failure is 0% compliance but below the sample floor.
	s.Record(false)
	if s.Breaching() {
		t.Fatal("breached below the evaluation floor")
	}
	for i := 0; i < 24; i++ {
		s.Record(true)
	}
	// 25 samples = floor; 24/25 = 0.96 < 0.99.
	if !s.Breaching() {
		t.Fatalf("not breaching at the floor with compliance %g", s.Compliance())
	}
}

func TestSLORecordAllocFree(t *testing.T) {
	s := NewSLO(0.9, 64)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		s.Record(i%7 != 0)
		i++
	})
	if allocs != 0 {
		t.Fatalf("SLO.Record allocates %v per op, want 0", allocs)
	}
}

// TestMetricsPublish: a pass against live obs/trace must register the
// quality series and count the audit.
func TestMetricsPublish(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	tr, err := trace.New(64)
	if err != nil {
		t.Fatal(err)
	}

	vals := series(5, 2048)
	a := NewAuditor(DefaultInterval, 9)
	a.ObserveBatch(vals)
	rep := a.Run(&fakeTarget{vals: vals, eps: 0.05, skew: 0.2}, m, tr, 3)
	if rep.Breaches == 0 {
		t.Fatal("0.2 skew against eps 0.05 should breach panel queries")
	}

	if got := m.audits.Value(); got != 1 {
		t.Fatalf("audits counter %d, want 1", got)
	}
	if got := m.breachesC.Value(); int(got) != rep.Breaches {
		t.Fatalf("breach counter %d, want %d", got, rep.Breaches)
	}
	var buf strings.Builder
	reg.WriteText(&buf)
	for _, want := range []string{
		"streamhist_quality_audits_total 1",
		"streamhist_quality_eps_headroom",
		"streamhist_quality_rel_err",
		`class="range"`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, buf.String())
		}
	}

	evs := tr.Snapshot()
	found := false
	for _, e := range evs {
		if e.Type == trace.EvAudit {
			found = true
			if e.Code != 3 {
				t.Fatalf("EvAudit shard code %d, want 3", e.Code)
			}
			if e.A != int64(rep.Queries) || e.N != int64(rep.Breaches) {
				t.Fatalf("EvAudit payload A=%d N=%d, want %d/%d", e.A, e.N, rep.Queries, rep.Breaches)
			}
		}
	}
	if !found {
		t.Fatal("no EvAudit instant recorded")
	}
}

// TestNilMetricsAndTrace: a pass with nil metrics and recorder must not
// panic — disabled observability is the default wiring.
func TestNilMetricsAndTrace(t *testing.T) {
	vals := series(5, 1024)
	a := NewAuditor(DefaultInterval, 9)
	a.ObserveBatch(vals)
	rep := a.Run(&fakeTarget{vals: vals, eps: 0.05}, nil, nil, 0)
	if rep.Queries == 0 {
		t.Fatal("no queries with nil observability")
	}
	st := a.Status()
	if st.Audits != 1 || st.LastAudit == nil {
		t.Fatalf("status %+v, want 1 audit with a last report", st)
	}
}

func TestStatusNil(t *testing.T) {
	var a *Auditor
	if st := a.Status(); st != (Status{}) {
		t.Fatalf("nil auditor status %+v, want zero", st)
	}
	if a.SLO() != nil {
		t.Fatal("nil auditor returned a live SLO")
	}
	if rep := a.Run(nil, nil, nil, 0); rep.Queries != 0 {
		t.Fatal("nil auditor ran queries")
	}
}
