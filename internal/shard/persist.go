package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"streamhist/internal/checkpoint"
	"streamhist/internal/resilience"
	"streamhist/internal/wal"
)

// metaName is the engine's layout marker at the top of DataDir. It must
// not contain "wal-" or "checkpoint-" (fault-injection rules in the
// chaos suite match those substrings to target the durability files).
const metaName = "streams.meta"

func shardDir(dataDir string, id int) string {
	return filepath.Join(dataDir, fmt.Sprintf("shard-%04d", id))
}

// checkMeta validates (or initializes) the DataDir layout: the striped
// layout is stamped with the shard count, which must match on reopen —
// keys hash onto a different stripe under a different count, so opening
// with the wrong one would silently split tenants' histories. A
// directory holding a legacy single-stream log is refused with a
// migration pointer rather than misread.
func (e *Engine) checkMeta() error {
	fs := e.cfg.FS
	if err := fs.MkdirAll(e.cfg.DataDir, 0o755); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	path := filepath.Join(e.cfg.DataDir, metaName)
	data, err := fs.ReadFile(path)
	if err == nil {
		var shards int
		if _, serr := fmt.Sscanf(string(data), "streamhist-shards: %d", &shards); serr != nil {
			return fmt.Errorf("shard: unparseable %s: %q", metaName, string(data))
		}
		if shards != e.cfg.Shards {
			return fmt.Errorf("shard: data dir was laid out with %d shards, engine configured with %d (key routing would change; reopen with -shards %d)",
				shards, e.cfg.Shards, shards)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return fmt.Errorf("shard: %w", err)
	}
	// No meta: either a fresh directory or a legacy single-stream one.
	entries, err := fs.ReadDir(e.cfg.DataDir)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "checkpoint-") {
			return fmt.Errorf("shard: %s holds a legacy single-stream log (%s); the sharded engine cannot read it — point DataDir elsewhere or replay the old data through the API (see README migration notes)",
				e.cfg.DataDir, name)
		}
	}
	// Fresh directory: stamp the layout. Written with the checkpoint
	// pattern (tmp, fsync, rename, dir fsync) so a crash never leaves a
	// half-written marker that parses.
	frame := []byte(fmt.Sprintf("streamhist-shards: %d\n", e.cfg.Shards))
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	if _, err := f.Write(frame); err != nil {
		_ = f.Close()
		return fmt.Errorf("shard: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("shard: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	if err := fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	if err := fs.SyncDir(e.cfg.DataDir); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return nil
}

// recover rebuilds this shard's streams from its stripe: open the keyed
// WAL, load the newest checkpoint container, then replay the uncovered
// log tail into every stream's summaries. Fixed windows restore exactly;
// the whole-stream auxiliaries rebuild from the replayed tail only, as
// in the single-stream daemon. Shards recover concurrently — each one
// touches only its own stripe and its own fields. The engine sums the
// key census after every shard finishes, so nothing here touches
// keyCount.
func (sh *shard) recover() error {
	fs := sh.eng.cfg.FS
	if err := fs.MkdirAll(sh.dir, 0o755); err != nil {
		return fmt.Errorf("shard %d: %w", sh.id, err)
	}
	w, err := wal.Open(wal.Options{
		Dir:             sh.dir,
		FS:              fs,
		Keyed:           true,
		SegmentBytes:    sh.eng.cfg.SegmentBytes,
		SyncEveryAppend: sh.eng.cfg.SyncEveryAppend,
		Metrics:         sh.eng.cfg.Metrics,
		Trace:           sh.eng.cfg.Trace,
	})
	if err != nil {
		return fmt.Errorf("shard %d: %w", sh.id, err)
	}
	sh.w = w
	return sh.loadStreams()
}

// loadStreams is the recovery core, shared by startup recovery and the
// quarantine restore (which runs it on a detached scratch shard against
// the live WAL handle): newest container in, uncovered tail replayed,
// invariants checked.
//
//lint:ignore mutex-discipline runs either before the shard's goroutines exist (startup) or on a detached scratch shard (quarantine restore)
func (sh *shard) loadStreams() error {
	fs := sh.eng.cfg.FS
	blob, seen, err := checkpoint.Latest(fs, sh.dir)
	if err != nil {
		return fmt.Errorf("shard %d: %w", sh.id, err)
	}
	var coveredSeq uint64
	if blob != nil {
		covered, blobs, derr := decodeContainer(blob)
		if derr != nil {
			return fmt.Errorf("shard %d: checkpoint at seen=%d unusable: %w", sh.id, seen, derr)
		}
		coveredSeq = covered
		for key, fwBlob := range blobs {
			st, serr := sh.recoveredState(key)
			if serr != nil {
				return fmt.Errorf("shard %d: %w", sh.id, serr)
			}
			// The snapshot's recorded configuration supersedes the factory's;
			// the auxiliaries follow it, so attach again in case
			// restoreWindow rebuilt them.
			if st, serr = restoreWindow(st, fwBlob); serr != nil {
				return fmt.Errorf("shard %d: checkpoint stream %q unusable: %w", sh.id, key, serr)
			}
			st.attach(sh.eng.cfg.Metrics, sh.eng.cfg.Trace)
			sh.wireAudit(key, st)
			sh.streams[key] = st
		}
		sh.applied = seen
		sh.logger().Info("recovered checkpoint", "shard", sh.id, "seen", seen, "streams", len(sh.streams))
	}
	var replayed int64
	err = sh.w.ReplayKeyed(coveredSeq, func(r wal.KeyedRecord) error {
		if r.Delete {
			if st, ok := sh.streams[r.Key]; ok {
				st.uncountEndpoints(sh.eng.aggEndpoints)
			}
			delete(sh.streams, r.Key)
			return nil
		}
		st, ok := sh.streams[r.Key]
		if !ok {
			var serr error
			st, serr = sh.recoveredState(r.Key)
			if serr != nil {
				return serr
			}
			sh.streams[r.Key] = st
		}
		for i, v := range r.Values {
			switch p := r.Start + int64(i); {
			case p < st.FW.Seen():
				// Covered by the checkpoint.
			case p == st.FW.Seen():
				st.FW.PushLazy(v)
				st.Agg.Push(v)
				st.GK.Insert(v)
				st.Sed.Push(v)
				st.Stats.Push(v)
				replayed++
			default:
				return fmt.Errorf("gap: stream %q record for position %d but state ends at %d", r.Key, p, st.FW.Seen())
			}
		}
		st.countEndpoints(sh.eng.aggEndpoints)
		return nil
	})
	if err != nil {
		return fmt.Errorf("shard %d: wal replay: %w", sh.id, err)
	}
	sh.applied += replayed
	if replayed > 0 {
		sh.logger().Info("replayed wal tail", "shard", sh.id, "points", replayed, "streams", len(sh.streams))
	}
	// Recovery invariant, per stream: a window never holds more than
	// min(seen, capacity) points.
	for key, st := range sh.streams {
		if want := min(st.FW.Seen(), int64(st.FW.Capacity())); int64(st.FW.Len()) != want {
			return fmt.Errorf("shard %d: recovery invariant violated: stream %q window holds %d points, want %d",
				sh.id, key, st.FW.Len(), want)
		}
	}
	sh.streamsGauge.Set(float64(len(sh.streams)))
	return nil
}

// recoveredState builds a fresh stream state during recovery (checkpoint
// load or mid-replay creation). Quota is not enforced here — data
// already on disk is never refused.
//
//lint:ignore mutex-discipline runs single-threaded inside loadStreams
func (sh *shard) recoveredState(key string) (*State, error) {
	st, err := sh.eng.cfg.Factory(key)
	if err != nil {
		return nil, fmt.Errorf("stream factory for recovered %q: %w", key, err)
	}
	st.attach(sh.eng.cfg.Metrics, sh.eng.cfg.Trace)
	sh.wireAudit(key, st)
	return st, nil
}

// encodeContainerLocked serializes the shard's streams. Call with sh.mu
// held for writing; each stream's window is encoded under its own lock.
//
//lint:ignore mutex-discipline callers (checkpoint, Restore, probeAndReanchor) hold sh.mu
func encodeContainerLocked(sh *shard, covered uint64) ([]byte, error) {
	return encodeContainer(covered, sh.streams)
}

// saveContainer persists blob as the shard's newest checkpoint, named by
// the shard's cumulative applied-point count. Call with sh.mu held (the
// container must match the applied count it is filed under).
//
//lint:ignore mutex-discipline callers (Restore, probeAndReanchor) hold sh.mu
func (sh *shard) saveContainer(blob []byte) error {
	if err := checkpoint.SaveTracedCode(sh.tracer(), 0, uint8(sh.id), sh.eng.cfg.FS, sh.dir, sh.applied, blob); err != nil {
		return err
	}
	sh.cm().total.Inc()
	sh.cm().bytes.Set(float64(len(blob)))
	return nil
}

// checkpoint atomically persists every stream's fixed window and then
// drops WAL segments the container covers. A clean shard (no mutations
// since the last checkpoint) is a no-op. Safe to call concurrently with
// ingests; concurrent checkpoints serialize on ckptMu.
func (sh *shard) checkpoint() error {
	if sh.dir == "" {
		return nil
	}
	if sh.quarantined.Load() {
		// A lock-held panic left the in-memory state suspect: persisting
		// it would overwrite the last good checkpoint with garbage.
		return fmt.Errorf("shard %d: state quarantined; refusing to checkpoint", sh.id)
	}
	sh.ckptMu.Lock()
	defer sh.ckptMu.Unlock()
	start := sh.cm().duration.Start()
	blob, seen, gen, covered, dirty, err := func() (blob []byte, seen, gen int64, covered uint64, dirty bool, err error) {
		sh.mu.Lock()
		defer sh.guardUnlock()
		if sh.dirtyGen == sh.ckptGen {
			return nil, 0, 0, 0, false, nil
		}
		// The active segment may gain records after this point; replay
		// must not skip it, so the container covers sealed segments only.
		covered = sh.w.ActiveSeq()
		blob, err = encodeContainerLocked(sh, covered)
		return blob, sh.applied, sh.dirtyGen, covered, true, err
	}()
	if err != nil {
		sh.cm().failures.Inc()
		return fmt.Errorf("shard %d: %w", sh.id, err)
	}
	if !dirty {
		return nil
	}
	if err := checkpoint.SaveTracedCode(sh.tracer(), 0, uint8(sh.id), sh.eng.cfg.FS, sh.dir, seen, blob); err != nil {
		sh.cm().failures.Inc()
		return err
	}
	if err := checkpoint.Prune(sh.eng.cfg.FS, sh.dir, 2); err != nil {
		// The checkpoint itself is durable; a failed prune only leaves
		// stale files behind. Still a disk complaint worth counting — a
		// disk that refuses deletes is often about to refuse writes.
		sh.cm().failures.Inc()
		sh.logger().Warn("checkpoint prune failed", "shard", sh.id, "err", err)
	}
	// Only after the container is durable may covered log segments go.
	// Rotate first so the just-covered active segment becomes deletable
	// on the next checkpoint.
	if err := sh.w.Rotate(); err != nil {
		sh.cm().failures.Inc()
		return err
	}
	if err := sh.w.DropSealedBefore(covered); err != nil {
		sh.cm().failures.Inc()
		return err
	}
	sh.mu.Lock()
	if gen > sh.ckptGen {
		sh.ckptGen = gen
	}
	sh.mu.Unlock()
	sh.cm().total.Inc()
	sh.cm().bytes.Set(float64(len(blob)))
	sh.cm().duration.ObserveSince(start)
	return nil
}

func (sh *shard) checkpointLoop(interval time.Duration) {
	defer close(sh.ckptDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	retry := resilience.Retry{Base: interval, Max: 8 * interval}
	var fails int
	var sizeAtFirstFail int64
	for {
		select {
		case <-t.C:
			if sh.degraded.Load() || sh.quarantined.Load() {
				// The supervisor owns recovery; a checkpoint now would
				// either fight the re-anchor or persist suspect state.
				continue
			}
			err := sh.checkpoint()
			if err == nil {
				fails = 0
				continue
			}
			fails++
			if fails == 1 {
				sizeAtFirstFail = sh.w.SizeBytes()
			}
			sh.logger().Error("periodic checkpoint failed", "shard", sh.id, "err", err, "consecutive", fails)
			// Watchdog: checkpoints keep failing while the WAL keeps
			// growing — replay-on-restart is getting worse without bound,
			// so escalate: trip the breaker and let the supervisor force a
			// re-anchor (which both checkpoints and truncates) when the
			// disk answers again.
			if fails >= ckptWatchdogFailures && sh.w.SizeBytes() > sizeAtFirstFail {
				sh.rm().watchdog.Inc()
				sh.br.Trip()
				sh.enterDegraded("checkpoint watchdog: repeated failures with a growing wal", err)
				fails = 0
				continue
			}
			// Backoff: a failing disk gets geometrically fewer checkpoint
			// attempts, not one per tick.
			if d := retry.Delay(fails); d > 0 {
				if !sh.sleep(d) {
					return
				}
				select {
				case <-t.C: // drop the tick that fired during the backoff
				default:
				}
			}
		case <-sh.stop:
			return
		}
	}
}

// ckptWatchdogFailures is how many consecutive periodic-checkpoint
// failures (with the WAL still growing) escalate to degraded mode.
const ckptWatchdogFailures = 3
