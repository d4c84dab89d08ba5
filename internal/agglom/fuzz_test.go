package agglom

import "testing"

// FuzzSnapshotRestore feeds arbitrary bytes to the agglomerative snapshot
// decoder: never panic, and any accepted snapshot must be usable.
func FuzzSnapshotRestore(f *testing.F) {
	s, _ := New(4, 0.5)
	for i := 0; i < 50; i++ {
		s.Push(float64(i % 7))
	}
	valid, _ := s.MarshalBinary()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("SAG1"))
	// A single-position interval whose halves disagree: must be refused.
	f.Add(singlePositionBlob(endpoint{pos: 1, sum: 3, sq: 5, herr: 0.5}, endpoint{pos: 1, sum: 4, sq: 5, herr: 0.5}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var restored Summary
		if err := restored.UnmarshalBinary(data); err != nil {
			return
		}
		restored.Push(1)
		restored.Push(2)
		if _, err := restored.Histogram(); err != nil {
			t.Fatalf("restored summary unusable: %v", err)
		}
	})
}
