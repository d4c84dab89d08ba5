// Package ignoreedge exercises the //lint:ignore edge cases: a directive
// on a line that trips two rules suppresses only the named one; a
// function-level directive covers a body using an embedded sync.Mutex;
// and a directive with no reason suppresses nothing and is itself
// reported. The expected diagnostics are asserted programmatically in
// lint_test.go (the malformed-directive line cannot carry a want
// comment: any trailing text would become its reason).
package ignoreedge

import (
	"errors"
	"sync"
)

// mixed.n is guarded by mu, and send returns an error, so an unlocked
// send(m.n) that drops the error trips both mutex-discipline and
// unchecked-err at once.
type mixed struct {
	mu sync.Mutex
	n  int64 // guarded by mu
}

// send stands in for a call whose error matters.
func send(n int64) error {
	if n < 0 {
		return errors.New("negative")
	}
	return nil
}

// sendPlain suppresses only unchecked-err; mutex-discipline still fires
// on the very same line. (Expected: mutex-discipline at the call.)
func sendPlain(m *mixed) {
	//lint:ignore unchecked-err a lost sample is tolerated here
	send(m.n)
}

// embedBox promotes Lock/Unlock from an embedded sync.Mutex; the guard
// annotation names the implicit field.
type embedBox struct {
	sync.Mutex
	v int // guarded by Mutex
}

// locked holds the embedded mutex through the promoted Lock: clean.
func locked(b *embedBox) int {
	b.Lock()
	defer b.Unlock()
	return b.v
}

// unguarded reads without the lock. (Expected: mutex-discipline.)
func unguarded(b *embedBox) int {
	return b.v
}

// newEmbedBox is covered end to end by a function-level directive in its
// doc comment; the unguarded store below is suppressed.
//
//lint:ignore mutex-discipline construction precedes sharing; no other goroutine can hold the box yet
func newEmbedBox() *embedBox {
	b := &embedBox{}
	b.v = 1
	return b
}

type leaky struct {
	mu sync.Mutex
	n  int
}

// missingReason's directive names a rule but gives no reason: the
// directive itself is reported as ignore-syntax, and the unlockpath leak
// on the line below is still reported too.
func missingReason(l *leaky) int {
	//lint:ignore unlockpath
	l.mu.Lock()
	if l.n == 0 {
		return 0
	}
	l.mu.Unlock()
	return l.n
}
