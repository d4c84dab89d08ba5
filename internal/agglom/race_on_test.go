//go:build race

package agglom

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
