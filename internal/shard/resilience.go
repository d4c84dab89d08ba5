// Per-shard self-healing: each shard carries its own WAL circuit
// breaker, degraded mode, recovery supervisor and panic quarantine, so a
// fault on one stripe degrades only the tenants hashed onto it. The
// durability contract is the server's, applied per shard:
//
//   - A non-degraded ingest acknowledgment means the batch is durable to
//     the configured fsync policy.
//   - When a stripe's WAL appends keep failing its breaker trips and THAT
//     shard enters degraded mode; the other shards keep full durability.
//   - The shard's supervisor probes its stripe on the breaker's jittered
//     backoff and re-anchors on success: a fresh checkpoint container of
//     the shard's streams (degraded memory-only points included) is made
//     durable and the stripe's WAL restarts, so previously-degraded
//     points become durable the moment the shard reports healthy.
//   - A panic while the shard's write lock or one of its streams' locks
//     is held quarantines only that shard; with RestoreOnPanic its
//     streams rebuild from the stripe in the background.
package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"streamhist/internal/resilience"
	"streamhist/internal/trace"
)

// newBreaker builds the shard's WAL circuit breaker with its transition
// hook wired into metrics, the flight recorder and the log.
func (sh *shard) newBreaker() *resilience.Breaker {
	cfg := sh.eng.cfg
	return resilience.NewBreaker(resilience.BreakerConfig{
		Threshold:  cfg.BreakerThreshold,
		Backoff:    cfg.BreakerBackoff,
		MaxBackoff: cfg.BreakerMaxBackoff,
		OnTransition: func(from, to resilience.State) {
			sh.rm().breakerState.Set(float64(to))
			sh.breakerGauge().Set(float64(to))
			sh.rm().transition(from.String(), to.String())
			sh.tracer().Instant(trace.EvBreaker, uint8(sh.id), 0, 0, int64(from), int64(to))
			sh.logger().Warn("wal breaker transition", "shard", sh.id, "from", from.String(), "to", to.String())
		},
	})
}

// enterDegraded flips the shard into degraded mode (idempotent) and
// wakes its supervisor. Callable with or without sh.mu held: the flag is
// atomic and the wake is non-blocking.
func (sh *shard) enterDegraded(reason string, err error) {
	if sh.degraded.CompareAndSwap(false, true) {
		sh.rm().degradedEntries.Inc()
		sh.logger().Error("entering degraded mode", "shard", sh.id, "reason", reason, "err", err, "policy", sh.eng.cfg.OnPersistError)
	}
	select {
	case sh.probeWake <- struct{}{}:
	default:
	}
}

// supervisor is the shard's recovery loop: while the shard is degraded
// it paces disk probes on the breaker's backoff and re-anchors the
// stripe's WAL on the first success. It sleeps on probeWake otherwise.
func (sh *shard) supervisor() {
	defer close(sh.supDone)
	for {
		select {
		case <-sh.stop:
			return
		case <-sh.probeWake:
		}
		for sh.degraded.Load() {
			if d := sh.br.NextProbeIn(); d > 0 {
				if !sh.sleep(d) {
					return
				}
				continue // re-read the deadline; jitter may differ from d
			}
			if !sh.br.Allow() {
				// HalfOpen with the probe token already claimed (or a
				// transition race): yield briefly and re-check.
				if !sh.sleep(5 * time.Millisecond) {
					return
				}
				continue
			}
			sh.rm().probes.Inc()
			if err := sh.probeAndReanchor(); err != nil {
				sh.rm().probeFailures.Inc()
				sh.br.Failure()
				sh.logger().Warn("recovery probe failed", "shard", sh.id, "err", err, "nextProbeIn", sh.br.NextProbeIn().String())
			}
		}
	}
}

// sleep waits d or until shutdown; false means shutting down.
func (sh *shard) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-sh.stop:
		return false
	case <-t.C:
		return true
	}
}

// probeAndReanchor is one recovery attempt. First a cheap disk probe in
// the stripe directory runs without the shard lock, so a still-sick disk
// costs no ingest latency. Only when the disk answers does the expensive
// step run: under the shard lock, checkpoint the shard's streams (any
// memory-only degraded points included) and restart the stripe's WAL, so
// the log is gapless by construction and every previously-degraded point
// is durable before the shard reports healthy again.
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
	// The log is about to restart; everything currently in it predates
	// the container being saved, so replay must skip it all.
	covered := sh.w.NextSeq()
	blob, err := encodeContainerLocked(sh, covered)
	if err != nil {
		return fmt.Errorf("shard %d: reanchor marshal: %w", sh.id, err)
	}
	if err := sh.saveContainer(blob); err != nil {
		return fmt.Errorf("shard %d: reanchor: %w", sh.id, err)
	}
	if err := sh.w.Reset(0); err != nil {
		return fmt.Errorf("shard %d: reanchor wal reset: %w", sh.id, err)
	}
	sh.br.Success()
	sh.degraded.Store(false)
	sh.rm().reanchors.Inc()
	sh.ckptGen = sh.dirtyGen
	sh.logger().Info("reanchored after degraded mode", "shard", sh.id, "applied", sh.applied, "checkpointBytes", len(blob))
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
		go sh.restoreFromDisk()
	}
	return lp
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
			st.uncountEndpoints(sh.eng.aggEndpoints)
		}
		sh.logger().Error("quarantine restore failed", "shard", sh.id, "err", err)
		return
	}
	var streams int
	func() {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		for _, st := range sh.streams {
			st.uncountEndpoints(sh.eng.aggEndpoints)
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
