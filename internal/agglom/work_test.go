package agglom

import (
	"runtime"
	"testing"
	"unsafe"

	"streamhist/internal/datagen"
)

// TestEntryLayout pins a stored entry at 32 bytes: the floor rides in the
// half of the position word that positions below 2^32 leave free, so the
// summary's heap is what it was without floors.
func TestEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 32 {
		t.Fatalf("entry is %d bytes, want 32", got)
	}
}

// TestScanWork pins minOverQueue's work at the daemon's defaults (B=16,
// eps=0.1) on its seeded quantized utilization load, fed in 256-point
// batches as the shard's drain feeds it: the candidates evaluated since
// the stream began, at two ages. The floorless counts are those of the
// same scan with every floor 0, which is the scan without its floor exit.
// A second summary replays the stream that way to age 4096 and must
// match its pin; past that age the replay would cost seconds, so 65536
// keeps only the pin. Counts, not timings, as TestRebuildWork does in
// internal/core.
func TestScanWork(t *testing.T) {
	if invariantsEnabled || raceEnabled {
		t.Skip("a 65536-point replay is too slow under the assertion build or the race detector; the counts do not depend on either")
	}
	const batch, floorlessAge = 256, 4096
	s, err := New(16, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	floorless, err := New(16, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.NewUtilization(datagen.UtilizationConfig{Seed: 1, Quantize: true})
	vs := make([]float64, batch)
	for _, tc := range []struct {
		age             int
		want, floorless int64   // evaluations since the stream began
		maxShare        float64 // want at most this share of floorless
	}{
		{floorlessAge, 10867274, 17193675, 0.65},
		{65536, 291152809, 1456290595, 0.30},
	} {
		for s.N() < tc.age {
			for i := range vs {
				vs[i] = g.Next()
			}
			s.PushBatch(vs)
			if floorless.N() >= floorlessAge {
				continue
			}
			for _, v := range vs {
				floorless.Push(v)
				for qi := range floorless.queues {
					es := floorless.queues[qi].entries
					es[len(es)-1].floor = 0
				}
			}
		}
		got := s.evals
		per := float64(tc.age)
		t.Logf("age %d: %.1f evaluations per point, %.1f without floors (%.0f%% fewer)",
			tc.age, float64(got)/per, float64(tc.floorless)/per, 100*(1-float64(got)/float64(tc.floorless)))
		if float64(got) > tc.maxShare*float64(tc.floorless) {
			t.Errorf("age %d: %d evaluations, want at most %.0f%% of the %d without floors",
				tc.age, got, 100*tc.maxShare, tc.floorless)
		}
		if floorless.N() == tc.age && floorless.ApproxError() != s.ApproxError() {
			t.Errorf("age %d: ApproxError %v, %v without floors", tc.age, s.ApproxError(), floorless.ApproxError())
		}
		// Other architectures may fuse multiply-adds in the scan, which
		// moves HERROR's last bits and with them the counts.
		if runtime.GOARCH != "amd64" {
			t.Logf("counts pinned for amd64 arithmetic; not checked on %s", runtime.GOARCH)
			continue
		}
		if got != tc.want {
			t.Errorf("age %d: %d evaluations, pinned %d", tc.age, got, tc.want)
		}
		if floorless.N() == tc.age && floorless.evals != tc.floorless {
			t.Errorf("age %d: %d evaluations without floors, pinned %d", tc.age, floorless.evals, tc.floorless)
		}
	}
}
