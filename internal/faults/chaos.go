package faults

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Op identifies one kind of mutating filesystem operation, for rule
// matching in the chaos engine.
type Op uint16

// Operation kinds, usable as a bitmask in Rule.Ops.
const (
	OpCreate   Op = 1 << iota // OpenFile that may create a missing file
	OpWrite                   // File.Write
	OpSync                    // File.Sync
	OpSyncDir                 // FS.SyncDir
	OpRename                  // FS.Rename
	OpRemove                  // FS.Remove
	OpTruncate                // FS.Truncate

	// OpAll matches every mutating operation.
	OpAll = OpCreate | OpWrite | OpSync | OpSyncDir | OpRename | OpRemove | OpTruncate
)

// String returns the operation kind's name (single-bit values only).
func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpSyncDir:
		return "syncdir"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpTruncate:
		return "truncate"
	}
	return "multi"
}

// ErrNoSpace is the injected ENOSPC: errors.Is matches both ErrInjected
// (it is a fault) and syscall.ENOSPC (it looks like a full disk to any
// errno-inspecting caller).
var ErrNoSpace = fmt.Errorf("%w: %w", ErrInjected, syscall.ENOSPC)

// Rule is one chaos-injection rule. A mutating operation matches when
// its kind is in Ops, its path contains PathContains (empty matches
// everything), and its 1-based sequence number among the rule's matches
// lies inside the [After, After+Count) window. A matching operation
// fails with probability Prob, returning Err; Latency (if any) is slept
// before the outcome either way, modelling a slow device.
type Rule struct {
	// Ops is the bitmask of operation kinds this rule covers. Zero
	// matches nothing (a disabled rule).
	Ops Op
	// PathContains restricts the rule to paths containing this
	// substring; empty matches every path.
	PathContains string
	// Prob is the failure probability per matching operation in [0,1].
	// 1 fails every match.
	Prob float64
	// After skips the first After matching operations before the rule
	// arms — the leading edge of an intermittent fault window.
	After int
	// Count bounds how many matching operations (past After) the rule
	// stays armed for; 0 means forever — the trailing edge of the
	// window.
	Count int
	// Err is the error injected; nil means ErrInjected. Use ErrNoSpace
	// for ENOSPC emulation.
	Err error
	// Torn, on a Write fault, writes a prefix of the buffer before
	// failing (a torn write). ShortFrac sets the fraction written;
	// 0 means half.
	Torn      bool
	ShortFrac float64
	// Latency is injected before every matching operation, fault or
	// not.
	Latency time.Duration
}

// ruleState is a Rule plus its match accounting.
type ruleState struct {
	Rule
	matched int // matching operations seen so far
	fired   int // faults this rule injected
}

// Chaos is a runtime fault-injection filesystem: a wrapper around an
// inner FS that applies a mutable rule set to every mutating operation.
// Its rules model a crash (see CrashAt) or a sick-but-alive device:
// probabilistic errors, intermittent fault windows, ENOSPC streaks, torn
// writes and injected latency, driven by a seeded generator so a chaos
// schedule is reproducible from its seed. Read-side operations always
// pass through: after a crash, tests reopen the state through a fresh
// FS. MkdirAll is idempotent setup and is not counted, and neither is
// Close: closing neither persists nor loses data, and a crashed
// process's descriptors are closed by the kernel anyway.
//
// Rules can be swapped at runtime (SetRules), so a test can alternate
// healthy and faulty phases while the daemon under test keeps running.
type Chaos struct {
	inner FS

	mu    sync.Mutex
	rng   *rand.Rand   // guarded by mu
	rules []*ruleState // guarded by mu
	ops   int          // guarded by mu; mutating operations observed
	fired int          // guarded by mu; total faults injected
}

// NewChaos wraps inner with an empty rule set and a generator seeded
// with seed. With no rules installed every operation passes through.
func NewChaos(inner FS, seed int64) *Chaos {
	return &Chaos{inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// CrashAt wraps inner as the crash injector: the nth mutating operation
// (1-based) and every one after it fail, and a failing Write first
// writes half its buffer (a torn write). With no crash yet, Fired is 0.
func CrashAt(inner FS, n int) *Chaos {
	c := NewChaos(inner, 0)
	c.SetRules(Rule{Ops: OpAll, Prob: 1, After: n - 1, Torn: true})
	return c
}

// SetRules atomically replaces the rule set. Match accounting restarts:
// each rule's window counts from the moment it is installed.
func (c *Chaos) SetRules(rules ...Rule) {
	states := make([]*ruleState, len(rules))
	for i, r := range rules {
		states[i] = &ruleState{Rule: r}
	}
	c.mu.Lock()
	c.rules = states
	c.mu.Unlock()
}

// Clear removes all rules: the filesystem is healthy again.
func (c *Chaos) Clear() { c.SetRules() }

// Ops returns the number of mutating operations observed.
func (c *Chaos) Ops() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// Fired returns the total number of faults injected so far.
func (c *Chaos) Fired() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

// outcome is the decision for one mutating operation.
type outcome struct {
	err     error
	torn    bool
	frac    float64
	latency time.Duration
}

// decide evaluates the rule set for one (op, path) and returns the
// injected outcome. The first rule that fires wins; latency accumulates
// across all matching rules.
func (c *Chaos) decide(op Op, path string) outcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops++
	var out outcome
	for _, r := range c.rules {
		if r.Ops&op == 0 || !pathMatches(path, r.PathContains) {
			continue
		}
		r.matched++
		idx := r.matched // 1-based among this rule's matches
		if idx <= r.After {
			continue
		}
		if r.Count > 0 && idx > r.After+r.Count {
			continue
		}
		out.latency += r.Latency
		if out.err != nil {
			continue // an earlier rule already failed this op
		}
		if r.Prob < 1 && c.rng.Float64() >= r.Prob {
			continue
		}
		r.fired++
		c.fired++
		out.err = r.Err
		if out.err == nil {
			out.err = ErrInjected
		}
		out.torn = r.Torn
		out.frac = r.ShortFrac
	}
	return out
}

func pathMatches(path, substr string) bool {
	return substr == "" || strings.Contains(path, substr)
}

// apply sleeps the injected latency and returns the injected error (nil
// when the operation should proceed).
func (o outcome) apply() error {
	if o.latency > 0 {
		time.Sleep(o.latency)
	}
	return o.err
}

// OpenFile counts as OpCreate only when it may create the file.
func (c *Chaos) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if flag&os.O_CREATE != 0 {
		if _, err := c.inner.Stat(name); err != nil {
			if err := c.decide(OpCreate, name).apply(); err != nil {
				return nil, fmt.Errorf("create %s: %w", name, err)
			}
		}
	}
	f, err := c.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &chaosFile{c: c, f: f, name: name}, nil
}

// ReadFile passes through.
func (c *Chaos) ReadFile(name string) ([]byte, error) { return c.inner.ReadFile(name) }

// ReadPrefix passes through.
func (c *Chaos) ReadPrefix(name string, n int) ([]byte, error) { return c.inner.ReadPrefix(name, n) }

// ReadDir passes through.
func (c *Chaos) ReadDir(name string) ([]fs.DirEntry, error) { return c.inner.ReadDir(name) }

// Rename is mutating.
func (c *Chaos) Rename(oldname, newname string) error {
	if err := c.decide(OpRename, newname).apply(); err != nil {
		return fmt.Errorf("rename %s: %w", oldname, err)
	}
	return c.inner.Rename(oldname, newname)
}

// Remove is mutating.
func (c *Chaos) Remove(name string) error {
	if err := c.decide(OpRemove, name).apply(); err != nil {
		return fmt.Errorf("remove %s: %w", name, err)
	}
	return c.inner.Remove(name)
}

// Truncate is mutating.
func (c *Chaos) Truncate(name string, size int64) error {
	if err := c.decide(OpTruncate, name).apply(); err != nil {
		return fmt.Errorf("truncate %s: %w", name, err)
	}
	return c.inner.Truncate(name, size)
}

// MkdirAll passes through (idempotent setup).
func (c *Chaos) MkdirAll(name string, perm os.FileMode) error {
	return c.inner.MkdirAll(name, perm)
}

// SyncDir is mutating.
func (c *Chaos) SyncDir(name string) error {
	if err := c.decide(OpSyncDir, name).apply(); err != nil {
		return fmt.Errorf("syncdir %s: %w", name, err)
	}
	return c.inner.SyncDir(name)
}

// Stat passes through.
func (c *Chaos) Stat(name string) (fs.FileInfo, error) { return c.inner.Stat(name) }

type chaosFile struct {
	c    *Chaos
	f    File
	name string
}

// Write applies OpWrite rules; a torn fault writes ShortFrac (default
// half) of the buffer before failing, modelling a crash or ENOSPC
// mid-write.
func (f *chaosFile) Write(p []byte) (int, error) {
	out := f.c.decide(OpWrite, f.name)
	if err := out.apply(); err != nil {
		n := 0
		if out.torn && len(p) > 1 {
			frac := out.frac
			if frac <= 0 || frac >= 1 {
				frac = 0.5
			}
			n, _ = f.f.Write(p[:int(float64(len(p))*frac)])
		}
		return n, fmt.Errorf("write %s: %w", f.name, err)
	}
	return f.f.Write(p)
}

// Sync applies OpSync rules.
func (f *chaosFile) Sync() error {
	if err := f.c.decide(OpSync, f.name).apply(); err != nil {
		return fmt.Errorf("sync %s: %w", f.name, err)
	}
	return f.f.Sync()
}

// Close is never faulted.
func (f *chaosFile) Close() error { return f.f.Close() }
