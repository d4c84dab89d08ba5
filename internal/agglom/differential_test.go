package agglom

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"streamhist/internal/datagen"
)

// diffStreams are the seeded streams the differential test replays: the
// daemon's diurnal utilization load, quantized and raw, plus a random
// walk, a step signal and i.i.d. Zipf draws.
func diffStreams(t testing.TB, n int) map[string][]float64 {
	t.Helper()
	walk, err := datagen.NewRandomWalk(31, 500, 10, 0, 1000, true)
	if err != nil {
		t.Fatal(err)
	}
	step, err := datagen.NewStepSignal(32, 40, 0, 500, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	zipf, err := datagen.NewZipf(33, 1.3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]float64{
		"utilization-quantized": datagen.Series(datagen.NewUtilization(datagen.UtilizationConfig{Seed: 34, Quantize: true}), n),
		"utilization-raw":       datagen.Series(datagen.NewUtilization(datagen.UtilizationConfig{Seed: 35}), n),
		"walk":                  datagen.Series(walk, n),
		"step":                  datagen.Series(step, n),
		"zipf":                  datagen.Series(zipf, n),
	}
}

// sameAsReference compares every observable answer of s against the
// reference: the extracted histogram and its SSE bit for bit, the SAG1
// snapshot bytes, the queue sizes and the stored-endpoint count.
func sameAsReference(s *Summary, ref *refSummary) error {
	if got, want := math.Float64bits(s.ApproxError()), math.Float64bits(ref.herrTop); got != want {
		return fmt.Errorf("ApproxError %v, reference %v", s.ApproxError(), ref.herrTop)
	}
	if got, want := s.QueueSizes(), ref.QueueSizes(); !slices.Equal(got, want) {
		return fmt.Errorf("queue sizes %v, reference %v", got, want)
	}
	if got, want := s.StoredEndpoints(), 2*sumInts(ref.QueueSizes()); got != want {
		return fmt.Errorf("stored endpoints %d, reference %d", got, want)
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		return err
	}
	if !bytes.Equal(blob, ref.MarshalBinary()) {
		return fmt.Errorf("snapshot bytes differ from the reference encoding")
	}
	got, gerr := s.Histogram()
	want, werr := ref.Histogram()
	if (gerr == nil) != (werr == nil) {
		return fmt.Errorf("Histogram error %v, reference %v", gerr, werr)
	}
	if gerr != nil {
		return nil
	}
	if math.Float64bits(got.SSE) != math.Float64bits(want.SSE) {
		return fmt.Errorf("histogram SSE %v, reference %v", got.SSE, want.SSE)
	}
	gb, wb := got.Histogram.Buckets, want.Histogram.Buckets
	if len(gb) != len(wb) {
		return fmt.Errorf("%d buckets, reference %d", len(gb), len(wb))
	}
	for i := range gb {
		if gb[i].Start != wb[i].Start || gb[i].End != wb[i].End ||
			math.Float64bits(gb[i].Value) != math.Float64bits(wb[i].Value) {
			return fmt.Errorf("bucket %d is %+v, reference %+v", i, gb[i], wb[i])
		}
	}
	return nil
}

func sumInts(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// TestPushMatchesReference replays seeded streams through Summary and the
// per-interval reference side by side: ApproxError must agree bit for bit
// after every point, and every other answer at checkpoints.
func TestPushMatchesReference(t *testing.T) {
	n := 6000
	if invariantsEnabled {
		// Under streamhist_invariants every Push re-checks the whole
		// state, which makes a replay quadratic in its length; the
		// assertion build replays the first 1500 points, the plain
		// build all 6000.
		n = 1500
	}
	for name, data := range diffStreams(t, n) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, b := range []int{1, 2, 8, 16, 32} {
				for _, eps := range []float64{0.01, 0.1, 0.5} {
					s, err := New(b, eps)
					if err != nil {
						t.Fatal(err)
					}
					ref := newRef(b, eps)
					for i, v := range data {
						s.Push(v)
						ref.Push(v)
						if math.Float64bits(s.ApproxError()) != math.Float64bits(ref.herrTop) {
							t.Fatalf("B=%d eps=%g point %d: ApproxError %v, reference %v",
								b, eps, i, s.ApproxError(), ref.herrTop)
						}
						if i < 4 || (i+1)%1500 == 0 {
							if err := sameAsReference(s, ref); err != nil {
								t.Fatalf("B=%d eps=%g after %d points: %v", b, eps, i+1, err)
							}
						}
					}
				}
			}
		})
	}
}

// FuzzPushMatchesReference drives Summary and the reference with
// arbitrary streams and configurations, round-tripping Summary through a
// SAG1 snapshot mid-stream; the restored summary must keep agreeing with
// the reference that never left memory.
func FuzzPushMatchesReference(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 2, 0, 9, 0, 9, 0, 9, 0, 1, 0}, uint8(3), uint8(6), uint16(3))
	f.Add([]byte("a flat run, then a step: ....................ZZZZZZZZZZZZ"), uint8(15), uint8(0), uint16(11))
	f.Add(bytes.Repeat([]byte{0xff, 0x7f, 0x00, 0x80}, 64), uint8(31), uint8(63), uint16(200))
	f.Fuzz(func(t *testing.T, data []byte, bSel, epsSel uint8, split uint16) {
		const maxPoints = 2048
		vs := make([]float64, 0, len(data)/2)
		for i := 0; i+1 < len(data) && len(vs) < maxPoints; i += 2 {
			vs = append(vs, float64(int16(binary.LittleEndian.Uint16(data[i:]))))
		}
		b := 1 + int(bSel%32)
		eps := float64(1+epsSel%64) / 64
		s, err := New(b, eps)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRef(b, eps)
		at := int(split) % (len(vs) + 1)
		for i, v := range vs {
			if i == at {
				blob, err := s.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				var restored Summary
				if err := restored.UnmarshalBinary(blob); err != nil {
					t.Fatalf("restoring a valid snapshot at point %d: %v", i, err)
				}
				s = &restored
			}
			s.Push(v)
			ref.Push(v)
			if math.Float64bits(s.ApproxError()) != math.Float64bits(ref.herrTop) {
				t.Fatalf("B=%d eps=%g point %d: ApproxError %v, reference %v", b, eps, i, s.ApproxError(), ref.herrTop)
			}
		}
		if err := sameAsReference(s, ref); err != nil {
			t.Fatalf("B=%d eps=%g after %d points: %v", b, eps, len(vs), err)
		}
	})
}
