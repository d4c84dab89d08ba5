// Package scenario defines the declarative scenario matrix: named,
// fully seeded workloads that exercise the approximation engine's
// failure modes — diurnal periodicity, bursts, adversarial ramps,
// regime drift, and heavy value skew — and a runner that streams each
// through the full daemon (HTTP handlers, shard loops, summaries, and
// the shadow auditor) while sampling the measured-accuracy trajectory
// at evaluate-every-N checkpoints.
//
// The paper's guarantee bounds the histogram's sum-of-squared-errors
// against the best B-bucket histogram, not the relative error of an
// individual range query, so each scenario carries its own calibrated
// measured-error ceiling (MaxErrBudget): the empirical ε contract the
// engine is held to. A scenario "breaches" when its audited maximum
// relative error exceeds that ceiling or its final SLO compliance
// falls below the calibrated floor (MinCompliance). TestMatrixBudgets
// replays the whole matrix and fails on any breach.
package scenario

import (
	"fmt"
	"math"

	"streamhist/internal/datagen"
)

// Scenario is one named workload in the matrix, everything needed to
// reproduce it bit-for-bit: the generator recipe (seeded), the engine
// configuration it runs against, and its calibrated accuracy contract.
type Scenario struct {
	Name        string  // stable identifier, used as the stream key
	Points      int     // total points streamed
	Batch       int     // points per ingest batch (must not exceed the audit interval)
	Window      int     // fixed-window capacity
	Buckets     int     // histogram bucket budget
	Eps         float64 // approximation precision
	Incremental bool    // run the incremental cover-repair engine

	// MaxErrBudget is the scenario's calibrated ceiling on the audited
	// maximum relative error across all checkpoints. Calibrated from
	// committed runs with margin, not derived from eps: the paper's
	// guarantee is on SSE, and range relative error varies by workload
	// shape (see DESIGN.md §12).
	MaxErrBudget float64

	// MinCompliance is the calibrated floor on the final SLO compliance
	// (the fraction of recent panel queries with rel_err <= eps).
	// Like MaxErrBudget it is empirical: set from committed runs with
	// margin, per workload shape.
	MinCompliance float64

	// Gen builds the scenario's generator. Fresh per run so a matrix
	// can be replayed; seeded internally, so every run sees the same
	// stream.
	Gen func() datagen.Generator
}

// sawtooth is the adversarial ramp: values climb linearly then crash,
// so bucket boundaries chase a moving staircase and every window
// wraparound mixes ramp phases. Period chosen co-prime-ish with
// typical window sizes to avoid accidental alignment.
func sawtooth(period int, lo, hi float64) datagen.Generator {
	t := 0
	return datagen.Func(func() float64 {
		v := lo + (hi-lo)*float64(t%period)/float64(period-1)
		t++
		return math.Round(v)
	})
}

// Matrix returns the named scenarios TestMatrixBudgets replays. Order
// is stable; names are stable identifiers (stream keys and diagnostics
// file names).
func Matrix() []Scenario {
	return []Scenario{
		{
			// Utilization trace: diurnal sinusoid + AR(1) noise, mild bursts.
			Name:   "diurnal",
			Points: 8192, Batch: 64, Window: 1024, Buckets: 12, Eps: 0.1,
			MaxErrBudget: 0.30, MinCompliance: 0.80,
			Gen: func() datagen.Generator {
				return datagen.NewUtilization(datagen.UtilizationConfig{Seed: 101, Quantize: true})
			},
		},
		{
			// Utilization trace with frequent tall bursts riding the diurnal.
			Name:   "bursty",
			Points: 8192, Batch: 64, Window: 1024, Buckets: 12, Eps: 0.1,
			MaxErrBudget: 0.12, MinCompliance: 0.90,
			Gen: func() datagen.Generator {
				return datagen.NewUtilization(datagen.UtilizationConfig{
					Seed: 202, BurstProb: 0.02, BurstMax: 500, Quantize: true,
				})
			},
		},
		{
			// Adversarial linear ramp, crash, repeat: bucket boundaries
			// chase a staircase.
			Name:   "sawtooth",
			Points: 8192, Batch: 64, Window: 1024, Buckets: 12, Eps: 0.1,
			MaxErrBudget: 0.15, MinCompliance: 0.95,
			Gen: func() datagen.Generator {
				return sawtooth(777, 50, 950)
			},
		},
		{
			// Step-signal regimes (normal / congestion / fault) switching
			// every ~1.5 windows.
			Name:   "regime-drift",
			Points: 8192, Batch: 64, Window: 1024, Buckets: 12, Eps: 0.1,
			MaxErrBudget: 0.20, MinCompliance: 0.90,
			Gen: func() datagen.Generator {
				mk := func(seed int64, lo, hi float64) datagen.Generator {
					g, err := datagen.NewStepSignal(seed, 200, lo, hi, 15, true)
					if err != nil {
						panic(err) // static parameters, cannot fail
					}
					return g
				}
				r, err := datagen.NewRegimeSwitcher([]datagen.Regime{
					{Gen: mk(31, 100, 300), Points: 1536},
					{Gen: mk(32, 500, 800), Points: 1536},
					{Gen: mk(33, 50, 150), Points: 1536},
				})
				if err != nil {
					panic(err)
				}
				return r
			},
		},
		{
			// Zipf(1.3) values: heavy mass on a few points, long sparse tail.
			Name:   "support-skew",
			Points: 8192, Batch: 64, Window: 1024, Buckets: 12, Eps: 0.1,
			MaxErrBudget: 0.80, MinCompliance: 0.60,
			Gen: func() datagen.Generator {
				g, err := datagen.NewZipf(404, 1.3, 1000)
				if err != nil {
					panic(err)
				}
				return g
			},
		},
		{
			// The diurnal trace on the incremental cover-repair engine:
			// staleness in play.
			Name:   "incremental-diurnal",
			Points: 8192, Batch: 64, Window: 1024, Buckets: 12, Eps: 0.1,
			Incremental:  true,
			MaxErrBudget: 0.40, MinCompliance: 0.80,
			Gen: func() datagen.Generator {
				return datagen.NewUtilization(datagen.UtilizationConfig{Seed: 101, Quantize: true})
			},
		},
	}
}

// ByName returns the named scenario from the matrix.
func ByName(name string) (Scenario, error) {
	for _, sc := range Matrix() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("scenario: unknown scenario %q", name)
}
