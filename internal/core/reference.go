package core

// Reference is the paper's CreateList exactly as Figure 5 states it: every
// push rebuilds each level's interval queue from scratch, locating every
// endpoint cold — by the classic doubling gallop with midpoint bisection,
// or position by position when linear is set — with no probe memo and no
// warm start. It is the oracle the production engine is checked against
// bit for bit and the baseline the ablations measure. The embedded
// FixedWindow supplies the window, the HERROR evaluation and every query;
// its queues are built only by the rebuild below, which runs eagerly, so
// the production maintenance never runs on them.
type Reference struct {
	*FixedWindow
	linear bool
}

// NewReference creates a reference maintainer over windows of capacity
// n with b buckets, precision eps and per-level growth factor delta.
// linear selects the position-by-position endpoint scan instead of the
// binary search.
func NewReference(n, b int, eps, delta float64, linear bool) (*Reference, error) {
	fw, err := NewWithDelta(n, b, eps, delta)
	if err != nil {
		return nil, err
	}
	return &Reference{FixedWindow: fw, linear: linear}, nil
}

// Push consumes the next stream point and rebuilds every queue.
func (r *Reference) Push(v float64) {
	r.sums.Push(v)
	r.rebuild()
}

// PushLazy is Push: the reference defers nothing.
func (r *Reference) PushLazy(v float64) { r.Push(v) }

// PushBatch consumes a batch of points with a single rebuild.
func (r *Reference) PushBatch(vs []float64) {
	for _, v := range vs {
		r.sums.Push(v)
	}
	r.rebuild()
}

// rebuild reconstructs every interval queue for the current window and
// recomputes the approximate top-level error.
func (r *Reference) rebuild() {
	w := r.sums.Len()
	if w == 0 {
		return
	}
	for k := 1; k <= r.b-1; k++ {
		r.queues[k-1] = r.queues[k-1][:0]
		for lo := 0; lo <= w-1; {
			t := r.herrAt(lo, k)
			c, herrC := lo, t
			if lo < w-1 {
				c, herrC = r.endpoint(lo, w-1, k, (1+r.delta)*t, t)
			}
			r.queues[k-1] = append(r.queues[k-1], iv{A: lo, B: c, HErrA: t, HErrB: herrC})
			lo = c + 1
		}
	}
	r.herrTop = r.herrAt(w-1, r.b)
	r.checkCover(w)
}

// endpoint finds the maximal c in [lo..hi] with HERROR[c,k] <= thr, given
// that it holds at lo with value val.
func (r *Reference) endpoint(lo, hi, k int, thr, val float64) (int, float64) {
	if r.linear {
		for lo < hi {
			v := r.herrAt(lo+1, k)
			if v > thr {
				break
			}
			lo++
			val = v
		}
		return lo, val
	}
	// Gallop at distances 1, 2, 4, ... until a probe fails, then bisect
	// the bracket at midpoints.
	h := hi
	for step := 1; lo+step <= hi; step *= 2 {
		v := r.herrAt(lo+step, k)
		if v > thr {
			h = lo + step - 1
			break
		}
		lo += step
		val = v
	}
	for lo < h {
		mid := int(uint(lo+h+1) >> 1)
		if v := r.herrAt(mid, k); v <= thr {
			lo = mid
			val = v
		} else {
			h = mid - 1
		}
	}
	return lo, val
}
