package core

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"streamhist/internal/obs"
)

// scrapeGauge reads one unlabeled series value out of a registry's
// text exposition.
func scrapeGauge(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not in exposition:\n%s", name, sb.String())
	return 0
}

// TestIncrFallbackRatioUnderBudgetOverrun pins the fallback-ratio gauge
// under a forced repair-budget overrun: with one repair allowed per
// pass, noisy slides exceed the budget and abort to the exact rebuild,
// so fallbacks dominate and the scrape-time ratio must (a) equal
// fallbacks/(hits+fallbacks) from IncrementalStats exactly and (b) sit
// far above the healthy schedule's 1/K baseline.
func TestIncrFallbackRatioUnderBudgetOverrun(t *testing.T) {
	const n, b = 64, 5
	push := func(fw *FixedWindow, seed int64, points int) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < points; i++ {
			fw.Push(rng.NormFloat64() * 40)
		}
	}

	// Starved: a huge exact-rebuild period so schedule fallbacks are
	// negligible, but only one endpoint repair per pass — overruns are
	// the only meaningful fallback source.
	starved, err := NewWithDelta(n, b, 0.2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	regS := obs.NewRegistry()
	starved.SetRegistry(regS)
	starved.SetIncrementalRebuild(true)
	starved.incrEvery, starved.incrBudget = 1<<20, 1
	push(starved, 7, 4*n)

	hits, _, fallbacks := starved.IncrementalStats()
	if fallbacks == 0 {
		t.Fatal("repair budget of 1 never overran — the forcing is broken")
	}
	wantRatio := float64(fallbacks) / float64(hits+fallbacks)
	got := scrapeGauge(t, regS, "streamhist_core_incr_fallback_ratio")
	if math.Abs(got-wantRatio) > 1e-9 {
		t.Errorf("gauge %g, IncrementalStats imply %g (hits=%d fallbacks=%d)",
			got, wantRatio, hits, fallbacks)
	}

	// Healthy: default budgets on the same stream. Its ratio is the
	// schedule baseline ~1/K; the starved engine must sit well above.
	healthy, err := NewWithDelta(n, b, 0.2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	regH := obs.NewRegistry()
	healthy.SetRegistry(regH)
	healthy.SetIncrementalRebuild(true)
	push(healthy, 7, 4*n)

	healthyRatio := scrapeGauge(t, regH, "streamhist_core_incr_fallback_ratio")
	if got <= healthyRatio {
		t.Errorf("starved ratio %g not above healthy baseline %g", got, healthyRatio)
	}
	if got < 2*healthyRatio {
		t.Errorf("starved ratio %g under 2x the healthy baseline %g — overrun forcing too weak to gate on",
			got, healthyRatio)
	}
}

// TestIncrFallbackRatioEmpty pins the gauge's zero state: before any
// incremental maintenance has run, the ratio reads 0, not NaN.
func TestIncrFallbackRatioEmpty(t *testing.T) {
	fw, err := NewWithDelta(64, 5, 0.2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fw.SetRegistry(reg)
	fw.SetIncrementalRebuild(true)
	if got := scrapeGauge(t, reg, "streamhist_core_incr_fallback_ratio"); got != 0 {
		t.Errorf("ratio %g before any pass, want 0", got)
	}
}
