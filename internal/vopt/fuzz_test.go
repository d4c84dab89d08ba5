package vopt_test

import (
	"testing"

	"streamhist/internal/core"
	"streamhist/internal/vopt"
)

// FuzzCreateList drives the fixed-window CreateList maintainer (section 4.5
// of the paper) with arbitrary byte streams and cross-checks, after every
// push, (a) the approximation guarantee against the exact DP:
// ApproxError <= (1+eps) * HERROR_opt, and (b) the production rebuild
// engine against the cold CreateList reference fed the same stream:
// identical ApproxError bits and identical interval covers at every level.
// The first byte picks the window capacity, bucket budget and precision;
// the rest are the stream.
func FuzzCreateList(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0, 0, 0, 255, 255, 255, 0, 255})
	f.Add([]byte{213, 17, 92, 92, 92, 4, 200, 13, 54})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		if len(data) > 300 {
			data = data[:300] // bound per-input cost: vopt.Error is O(n^2 b) per push
		}
		n := 1 + int(data[0])%32
		b := 1 + int(data[0]>>5)
		eps := 0.05 + 0.05*float64(data[0]%7)
		fw, err := core.New(n, b, eps)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := core.NewReference(n, b, eps, fw.Delta(), false)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range data[1:] {
			fw.Push(float64(c))
			cold.Push(float64(c))
			if fw.Len() < 2 {
				continue
			}
			opt, err := vopt.Error(fw.Window(), b)
			if err != nil {
				t.Fatal(err)
			}
			bound := (1+eps)*opt + 1e-6
			got := fw.ApproxError()
			if got > bound {
				t.Fatalf("n=%d b=%d eps=%g seen=%d: ApproxError %v > (1+eps)*opt %v",
					n, b, eps, fw.Seen(), got, bound)
			}
			if ce := cold.ApproxError(); ce != got {
				t.Fatalf("n=%d b=%d eps=%g seen=%d: warm ApproxError %v != cold %v",
					n, b, eps, fw.Seen(), got, ce)
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
