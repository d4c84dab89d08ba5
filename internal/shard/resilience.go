// Per-shard self-healing: each durable shard carries its own degraded
// mode, which is its WAL circuit breaker, one upkeep goroutine that
// checkpoints it and probes it back to health, and a panic quarantine,
// so a fault on one stripe degrades only the tenants hashed onto it. The
// durability contract is the server's, applied per shard:
//
//   - A non-degraded ingest acknowledgment means the batch is durable to
//     the configured fsync policy.
//   - When a stripe's WAL appends fail BreakerThreshold times in a row,
//     THAT shard enters degraded mode (its breaker opens); the other
//     shards keep full durability.
//   - The shard's upkeep loop probes its stripe on a jittered, doubling
//     backoff (the breaker is half-open while a probe runs) and
//     re-anchors on success: a fresh checkpoint container of the shard's
//     streams (degraded memory-only points included) is made durable and
//     the stripe's WAL restarts, so previously-degraded points become
//     durable the moment the shard reports healthy.
//   - A panic while the shard's write lock or one of its streams' locks
//     is held quarantines only that shard; with RestoreOnPanic its
//     streams rebuild from the stripe in the background. Nothing persists
//     a quarantined shard's state.
package shard

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"streamhist/internal/trace"
)

// breakerState is a shard's WAL circuit breaker state, a view of its
// degraded mode: closed while healthy, open while degraded, half-open
// while a recovery probe runs. The breaker gauges export its value.
type breakerState int

const (
	brClosed breakerState = iota
	brOpen
	brHalfOpen
)

func (s breakerState) String() string {
	return [...]string{"closed", "open", "half_open"}[s]
}

func (sh *shard) breakerState() breakerState {
	switch {
	case !sh.degraded.Load():
		return brClosed
	case sh.probing.Load():
		return brHalfOpen
	}
	return brOpen
}

// transition records one breaker transition in the shard's gauge, the
// engine's gauge, the labeled transition counter, the flight recorder
// and the log. Call it once the atomics show the new state.
func (sh *shard) transition(from, to breakerState) {
	sh.breakerGauge().Set(float64(to))
	sh.eng.setBreakerGauge()
	sh.rm().transition(from.String(), to.String())
	sh.tracer().Instant(trace.EvBreaker, uint8(sh.id), 0, 0, int64(from), int64(to))
	sh.logger().Warn("wal breaker transition", "shard", sh.id, "from", from.String(), "to", to.String())
}

// setBreakerGauge sets the unlabeled breaker gauge to the highest state
// over the engine's shards, so a shard that heals does not hide another
// that is still degraded. brMu orders the writes: the last one reads
// every shard's latest state.
func (e *Engine) setBreakerGauge() {
	e.brMu.Lock()
	defer e.brMu.Unlock()
	var high breakerState
	for _, sh := range e.shards {
		high = max(high, sh.breakerState())
	}
	e.rm.breakerState.Set(float64(high))
}

// enterDegraded flips the shard into degraded mode, opening its breaker,
// and wakes its upkeep loop to schedule the first probe. Idempotent, and
// callable with or without sh.mu held: the flag is atomic and the wake
// non-blocking.
func (sh *shard) enterDegraded(reason string, err error) {
	if !sh.degraded.CompareAndSwap(false, true) {
		return
	}
	sh.transition(brClosed, brOpen)
	sh.rm().degradedEntries.Inc()
	sh.logger().Error("entering degraded mode", "shard", sh.id, "reason", reason, "err", err, "policy", sh.eng.cfg.OnPersistError)
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// ckptWatchdogFailures is how many consecutive periodic-checkpoint
// failures (with the WAL still growing) escalate to degraded mode.
const ckptWatchdogFailures = 3

// upkeep is a durable shard's one background goroutine. Healthy, it
// checkpoints every CheckpointInterval, never when that is 0, and after
// consecutive failures backs off geometrically up to 8 intervals; its
// watchdog enters degraded mode when checkpoints keep failing while the
// WAL grows. Degraded, it probes the stripe after a jittered backoff
// that starts at BreakerBackoff and doubles per failed probe up to
// BreakerMaxBackoff. Quarantined, it persists nothing and keeps its
// schedule, waiting for a restore to lift the quarantine.
func (sh *shard) upkeep() {
	defer close(sh.upkeepDone)
	cfg := &sh.eng.cfg
	ivl := cfg.CheckpointInterval
	var ckptFails, probeFails int
	var walAtFirstFail int64
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		degraded := sh.degraded.Load()
		wait := time.Duration(-1) // nothing due until a wake
		switch {
		case degraded:
			wait = backoff(cfg.BreakerBackoff, cfg.BreakerMaxBackoff, probeFails)
		case ckptFails > 0:
			wait = backoff(ivl, 8*ivl, ckptFails-1)
		case ivl > 0:
			wait = ivl
		}
		rearm(timer, wait)
		select {
		case <-sh.stop:
			return
		case <-sh.wake:
			continue // degraded mode began: schedule the first probe
		case <-timer.C:
		}
		switch {
		case sh.quarantined.Load() || sh.degraded.Load() != degraded:
			// A lock-held panic left the state suspect, and a checkpoint
			// or re-anchor would persist it; or degraded mode began after
			// this step was scheduled, and its wake reschedules.
		case degraded:
			sh.probing.Store(true)
			sh.transition(brOpen, brHalfOpen)
			sh.rm().probes.Inc()
			if err := sh.probeAndReanchor(); err != nil {
				sh.probing.Store(false)
				sh.transition(brHalfOpen, brOpen)
				sh.rm().probeFailures.Inc()
				probeFails++
				sh.logger().Warn("recovery probe failed", "shard", sh.id, "err", err, "consecutive", probeFails)
				continue
			}
			probeFails, ckptFails = 0, 0
		default:
			err := sh.checkpoint()
			if err == nil {
				ckptFails = 0
				continue
			}
			ckptFails++
			if ckptFails == 1 {
				walAtFirstFail = sh.w.SizeBytes()
			}
			sh.logger().Error("periodic checkpoint failed", "shard", sh.id, "err", err, "consecutive", ckptFails)
			// Watchdog: checkpoints keep failing while the WAL keeps
			// growing, so replay-on-restart is getting worse without
			// bound. Degrade; a probe's re-anchor, which both checkpoints
			// and truncates, runs once the disk answers again.
			if ckptFails >= ckptWatchdogFailures && sh.w.SizeBytes() > walAtFirstFail {
				sh.rm().watchdog.Inc()
				sh.enterDegraded("checkpoint watchdog: repeated failures with a growing wal", err)
				ckptFails = 0
			}
		}
	}
}

// backoff is the wait after k consecutive failures: base doubled k
// times, capped at limit, spread uniformly over ±10% so shards that
// failed together do not retry in lockstep.
func backoff(base, limit time.Duration, k int) time.Duration {
	d := base
	for ; k > 0 && d < limit; k-- {
		d *= 2
	}
	return time.Duration(float64(min(d, limit)) * (0.9 + 0.2*rand.Float64()))
}

// rearm makes t fire once after d, or not at all when d < 0, dropping
// an expiry not yet received.
func rearm(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	if d >= 0 {
		t.Reset(d)
	}
}

// probeAndReanchor is one recovery attempt, run while the breaker is
// half-open. First a cheap disk probe in the stripe directory runs
// without the shard lock, so a still-sick disk costs no ingest latency.
// Only when the disk answers does the expensive step run: under the
// shard lock, checkpoint the shard's streams (any memory-only degraded
// points included) and restart the stripe's WAL, so the log is gapless
// by construction and every previously-degraded point is durable before
// the shard reports healthy again.
func (sh *shard) probeAndReanchor() error {
	if err := sh.diskProbe(); err != nil {
		return err
	}
	// Lock order matches checkpoint: ckptMu then mu, so a concurrent
	// explicit checkpoint cannot deadlock against a re-anchor.
	sh.ckptMu.Lock()
	defer sh.ckptMu.Unlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.reanchor("", nil); err != nil {
		return fmt.Errorf("shard %d: reanchor: %w", sh.id, err)
	}
	// The breaker closes before the lock goes, so the loop's next append,
	// and any failure of it, follows this transition.
	sh.appendFails = 0
	sh.probing.Store(false)
	sh.degraded.Store(false)
	sh.transition(brHalfOpen, brClosed)
	sh.rm().reanchors.Inc()
	sh.logger().Info("reanchored after degraded mode", "shard", sh.id, "applied", sh.applied)
	return nil
}

// diskProbe exercises the stripe's write path end to end on a scratch
// file: create, write, fsync, remove. Any inexpensive operation
// succeeding is not enough — a disk can accept writes and fail fsync (or
// deletes), so the probe touches all three before recovery is declared.
func (sh *shard) diskProbe() error {
	name := filepath.Join(sh.dir, ".probe")
	f, err := sh.eng.cfg.FS.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("probe create: %w", err)
	}
	if _, err := f.Write([]byte("probe")); err != nil {
		_ = f.Close()
		return fmt.Errorf("probe write: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("probe sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("probe close: %w", err)
	}
	if err := sh.eng.cfg.FS.Remove(name); err != nil {
		return fmt.Errorf("probe remove: %w", err)
	}
	return nil
}

// LockedPanic wraps a panic that struck while a shard's write lock or a
// stream's lock was held, so the HTTP layer's recovery middleware can
// tell a state-corrupting panic (already quarantined, closer to the
// fault) from a harmless one.
type LockedPanic struct{ Val any }

func (p *LockedPanic) Error() string {
	return fmt.Sprintf("panic while shard state lock held: %v", p.Val)
}

// guardUnlock pairs with sh.mu.Lock() as `defer sh.guardUnlock()` around
// a write-locked critical section. On the normal path it is just Unlock.
// If the critical section panicked, the streams behind the lock are in
// an unknown half-mutated state: guardUnlock releases the lock (so the
// shard cannot deadlock), quarantines it, and re-panics wrapped so the
// caller's recovery still answers the request. State.guardUnlock is the
// same guard for a stream's own lock.
func (sh *shard) guardUnlock() {
	if p := recover(); p != nil {
		sh.mu.Unlock()
		panic(sh.quarantine(p))
	}
	sh.mu.Unlock()
}

// quarantine marks the shard's streams suspect after a lock-held panic p
// and returns p wrapped for the guard to re-panic: mutations on this
// shard are refused until a restore (automatic with RestoreOnPanic, or an
// operator restart) replaces them from the stripe. A p that is already a
// *LockedPanic was quarantined by an inner stream lock's guard and comes
// back unchanged.
func (sh *shard) quarantine(p any) *LockedPanic {
	if lp, ok := p.(*LockedPanic); ok {
		return lp
	}
	lp := &LockedPanic{Val: p}
	if !sh.quarantined.CompareAndSwap(false, true) {
		return lp
	}
	sh.rm().quarantines.Inc()
	sh.tracer().Instant(trace.EvPanic, uint8(sh.id), 0, 0, 1, 0)
	sh.logger().Error("panic while shard lock held; shard quarantined", "shard", sh.id, "panic", fmt.Sprint(p))
	if sh.eng.cfg.RestoreOnPanic && sh.dir != "" {
		sh.startRestore()
	}
	return lp
}

// startRestore runs restoreFromDisk in the background unless the shard
// is stopping; wait joins a restore already running.
func (sh *shard) startRestore() {
	sh.restoreMu.Lock()
	defer sh.restoreMu.Unlock()
	if sh.stopping {
		return
	}
	sh.restores.Add(1)
	go func() {
		defer sh.restores.Done()
		sh.restoreFromDisk()
	}()
}

// restoreFromDisk rebuilds the shard's streams from its stripe — the
// same procedure as startup recovery, run on a detached scratch shard —
// and swaps the result in, lifting the quarantine. The WAL handle itself
// is untouched by a processing panic and carries over. Points
// acknowledged while degraded that were never re-anchored are lost here;
// they were advertised as non-durable when acknowledged.
func (sh *shard) restoreFromDisk() {
	sh.ckptMu.Lock()
	defer sh.ckptMu.Unlock()
	// Recover into a scratch shard so a failure leaves the quarantined
	// state untouched. The scratch shard opens no WAL of its own: replay
	// runs against the existing handle (untouched by a processing panic).
	scratch := &shard{
		eng: sh.eng, id: sh.id, dir: sh.dir, w: sh.w,
		streams:      make(map[string]*State),
		streamsGauge: sh.streamsGauge,
	}
	err := scratch.loadStreams()
	//lint:ignore mutex-discipline scratch is local to this call; its maps are published only under sh.mu below
	newStreams, newApplied := scratch.streams, scratch.applied
	if err != nil {
		for _, st := range newStreams {
			st.discard(sh.eng.aggEndpoints)
		}
		sh.logger().Error("quarantine restore failed", "shard", sh.id, "err", err)
		return
	}
	var streams int
	func() {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		for _, st := range sh.streams {
			st.discard(sh.eng.aggEndpoints)
		}
		sh.eng.keyCount.Add(int64(len(newStreams) - len(sh.streams)))
		sh.streams = newStreams
		sh.applied = newApplied
		sh.dirtyGen++
		sh.streamsGauge.Set(float64(len(sh.streams)))
		streams = len(sh.streams)
	}()
	sh.quarantined.Store(false)
	sh.logger().Info("restored from disk after quarantine", "shard", sh.id, "streams", streams)
}
