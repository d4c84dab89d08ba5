package quality

// SLO is a rolling accuracy objective: over the last Window query
// outcomes, the fraction whose measured relative error stayed within ε
// (the "good" fraction, Compliance) must be at least Target.
//
// The error budget is the tolerated failure mass, 1 - Target. BurnRate
// is how fast the budget is being spent: observed failure fraction over
// budget, so 1.0 means failures arrive exactly at the tolerated rate,
// and 2.0 means the budget would be exhausted in half the window. These
// are the standard SRE definitions, applied to accuracy instead of
// availability.
//
// Breach state is evaluated only once the window has at least minEval
// samples (a quarter of the window) so a single early failure cannot
// flap the objective; it latches until compliance recovers to Target.
// Transitions into breach are counted — the caller uses the pre/post
// Breaching pair around a batch of Records to emit trace events and
// captures exactly once per episode.
//
// SLO is not self-locking: the owning auditor runs under its stream's
// lock (and its shard's write lock) in the shard loop.
type SLO struct {
	target float64
	// outcomes is a ring of the last window results (true = within ε).
	outcomes []bool
	at       int
	n        int
	bad      int // failures among the n valid outcomes

	breaching bool
	breaches  int64
}

// NewSLO builds an objective with the given compliance target over a
// rolling window of query outcomes.
func NewSLO(target float64, window int) *SLO {
	if target <= 0 || target > 1 {
		target = 0.9
	}
	if window <= 0 {
		window = 256
	}
	return &SLO{target: target, outcomes: make([]bool, window)}
}

// Record feeds one query outcome (ok = measured error within ε) and
// re-evaluates breach state. Allocation-free.
func (s *SLO) Record(ok bool) {
	if s == nil {
		return
	}
	if s.n == len(s.outcomes) {
		// Evicting the oldest outcome.
		if !s.outcomes[s.at] {
			s.bad--
		}
	} else {
		s.n++
	}
	s.outcomes[s.at] = ok
	if !ok {
		s.bad++
	}
	s.at++
	if s.at == len(s.outcomes) {
		s.at = 0
	}

	if s.n < s.minEval() {
		return
	}
	c := s.Compliance()
	if !s.breaching && c < s.target {
		s.breaching = true
		s.breaches++
	} else if s.breaching && c >= s.target {
		s.breaching = false
	}
}

// minEval is the sample floor below which breach state is not evaluated.
func (s *SLO) minEval() int {
	m := len(s.outcomes) / 4
	if m < 1 {
		m = 1
	}
	return m
}

// Target returns the required compliance (0 on nil).
func (s *SLO) Target() float64 {
	if s == nil {
		return 0
	}
	return s.target
}

// Window returns the rolling window size in queries (0 on nil).
func (s *SLO) Window() int {
	if s == nil {
		return 0
	}
	return len(s.outcomes)
}

// Samples returns how many outcomes the window currently holds.
func (s *SLO) Samples() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Compliance is the good fraction over the current window; 1 with no
// samples (an empty objective is vacuously met).
func (s *SLO) Compliance() float64 {
	if s == nil || s.n == 0 {
		return 1
	}
	return float64(s.n-s.bad) / float64(s.n)
}

// BurnRate is the observed failure fraction over the error budget
// (1 - target). 1.0 means failures arrive exactly at the tolerated
// rate; values above 1 consume budget faster than the objective allows.
func (s *SLO) BurnRate() float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	budget := 1 - s.target
	if budget < 1e-9 {
		budget = 1e-9
	}
	return (float64(s.bad) / float64(s.n)) / budget
}

// Breaching reports whether the objective is currently in breach.
func (s *SLO) Breaching() bool {
	return s != nil && s.breaching
}

// BreachCount returns how many times the objective has transitioned
// into breach.
func (s *SLO) BreachCount() int64 {
	if s == nil {
		return 0
	}
	return s.breaches
}
