package vopt_test

import (
	"math"
	"testing"

	"streamhist/internal/core"
	"streamhist/internal/vopt"
)

// FuzzCreateList drives the fixed-window CreateList maintainer (section 4.5
// of the paper) with arbitrary byte streams and cross-checks, after every
// flush, (a) the approximation guarantee against the exact DP:
// ApproxError <= (1+eps) * HERROR_opt at the paper's delta, and within
// (1+delta)^(2B) of it at delta = eps, and (b) the production rebuild
// engine against the cold CreateList reference fed the same stream:
// identical ApproxError bits and identical interval covers at every level.
// The first byte picks the window capacity, bucket budget and precision.
// The second picks the growth factor (bit 0: delta = eps, as the daemon
// runs, else the paper's eps/(2B)) and the burst length (bits 1-3, plus
// one): a burst of one is pushed eagerly, a longer one lazily and flushed
// by the next query, as the daemon defers maintenance between queries.
// The rest are the stream.
func FuzzCreateList(f *testing.F) {
	f.Add([]byte{1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 0, 255})
	f.Add([]byte{213, 0, 17, 92, 92, 92, 4, 200, 13, 54})
	f.Add([]byte{255, 1, 9, 9, 9, 9, 200, 201, 202, 203, 7, 7, 7, 7, 7, 120, 121, 0, 0, 0, 0, 0, 0, 255, 3, 3, 3})
	f.Add([]byte{191, 7, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 90, 80, 70, 60, 50, 40, 30, 20, 10, 0, 5, 5, 5, 5, 250, 250})
	f.Add([]byte{213, 6, 92, 92, 92, 4, 200, 13, 54, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 90, 80, 70, 60, 50, 40, 30, 20, 10, 0, 5, 5, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		if len(data) > 300 {
			data = data[:300] // bound per-input cost: vopt.Error is O(n^2 b) per flush
		}
		n := 1 + int(data[0])%32
		b := 1 + int(data[0]>>5)
		eps := 0.05 + 0.05*float64(data[0]%7)
		delta, factor := eps/(2*float64(b)), 1+eps
		if data[1]&1 != 0 {
			delta, factor = eps, math.Pow(1+eps, 2*float64(b))
		}
		burst := 1 + int(data[1]>>1)&7
		fw, err := core.NewWithDelta(n, b, eps, delta)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := core.NewReference(n, b, eps, delta, false)
		if err != nil {
			t.Fatal(err)
		}
		vs := make([]float64, 0, burst)
		for stream := data[2:]; len(stream) > 0; {
			vs = vs[:0]
			for len(vs) < burst && len(stream) > 0 {
				vs = append(vs, float64(stream[0]))
				stream = stream[1:]
			}
			if burst == 1 {
				fw.Push(vs[0])
			} else {
				for _, v := range vs {
					fw.PushLazy(v)
				}
			}
			cold.PushBatch(vs)
			if fw.Len() < 2 {
				continue
			}
			opt, err := vopt.Error(fw.Window(), b)
			if err != nil {
				t.Fatal(err)
			}
			bound := factor*opt + 1e-6
			got := fw.ApproxError()
			if got > bound {
				t.Fatalf("n=%d b=%d eps=%g delta=%g seen=%d: ApproxError %v > %v*opt %v",
					n, b, eps, delta, fw.Seen(), got, factor, bound)
			}
			if ce := cold.ApproxError(); ce != got {
				t.Fatalf("n=%d b=%d eps=%g delta=%g seen=%d: warm ApproxError %v != cold %v",
					n, b, eps, delta, fw.Seen(), got, ce)
			}
			for k := 1; k < b; k++ {
				wc, cc := fw.Cover(k), cold.Cover(k)
				if len(wc) != len(cc) {
					t.Fatalf("level %d: warm cover has %d intervals, cold %d", k, len(wc), len(cc))
				}
				for i := range wc {
					if wc[i] != cc[i] {
						t.Fatalf("level %d interval %d: warm %+v != cold %+v", k, i, wc[i], cc[i])
					}
				}
			}
		}
	})
}
