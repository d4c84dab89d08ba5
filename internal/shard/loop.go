package shard

import (
	"fmt"

	"streamhist/internal/trace"
	"streamhist/internal/wal"
)

// maxBatch bounds how many mailbox requests one loop iteration drains
// into a single group commit.
const maxBatch = 128

// request is one mailbox message: an ingest batch or a tombstone.
type request struct {
	key    string
	values []float64
	del    bool
	parent trace.SpanID
	done   chan response // cap 1; the loop replies exactly once
	// replied is touched only by the loop goroutine (and its panic
	// recovery), guarding against double replies across the phases.
	replied bool
}

type response struct {
	seen     int64
	degraded bool
	err      error
}

// reply delivers the response once; later calls are no-ops.
func (r *request) reply(resp response) {
	if r.replied {
		return
	}
	r.replied = true
	r.done <- resp
}

// loop is the shard's single writer: it drains the mailbox in batches,
// write-ahead-logs each batch with one group fsync, applies it to the
// in-memory summaries, and replies per request.
func (sh *shard) loop() {
	defer close(sh.loopDone)
	for {
		var first *request
		select {
		case <-sh.stop:
			sh.drainShutdown()
			return
		case first = <-sh.mailbox:
		}
		batch := append(make([]*request, 0, 8), first)
		// Opportunistic drain: everything already queued rides the same
		// group commit.
	drain:
		for len(batch) < maxBatch {
			select {
			case req := <-sh.mailbox:
				batch = append(batch, req)
			default:
				break drain
			}
		}
		sh.process(batch)
	}
}

// drainShutdown fails everything still queued at stop time.
func (sh *shard) drainShutdown() {
	for {
		select {
		case req := <-sh.mailbox:
			req.reply(response{err: ErrShuttingDown})
		default:
			return
		}
	}
}

// plan carries one request's resolved work through the batch phases.
type plan struct {
	req   *request
	st    *State
	start int64 // per-key position before this request's values
	fresh bool  // st was created for this batch and is not installed yet
}

// process runs one batch: plan (resolve states and WAL records), persist
// (one group commit for the whole batch), apply (mutate summaries and
// reply). The shard's write lock is held across all three, so lookups
// wait for the batch and the stream map never shows a half-planned
// create or delete; each request's apply also holds its stream's lock
// (see apply), so a reader of a stream sees whole requests only. A panic
// inside quarantines the shard via the lock guards and the recovery here
// fails the batch's outstanding replies instead of leaving clients
// blocked forever.
func (sh *shard) process(batch []*request) {
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(*LockedPanic); ok {
				for _, req := range batch {
					req.reply(response{err: ErrQuarantined})
				}
				return
			}
			panic(p)
		}
	}()
	sh.mu.Lock()
	defer sh.guardUnlock()

	if sh.quarantined.Load() {
		for _, req := range batch {
			req.reply(response{err: ErrQuarantined})
		}
		return
	}

	// Phase A: plan. Resolve each request's state (creating batch-local
	// fresh states as needed), track running per-key positions, and build
	// the WAL records. Requests that fail planning reply immediately and
	// take no further part.
	plans := make([]plan, 0, len(batch))
	recs := make([]wal.KeyedRecord, 0, len(batch))
	startAt := make(map[string]int64)    // running per-key position within the batch
	newStates := make(map[string]*State) // created this batch, not yet installed
	deleted := make(map[string]bool)     // tombstoned earlier in this batch
	for _, req := range batch {
		st, ok := sh.streams[req.key]
		if !ok || deleted[req.key] {
			st, ok = newStates[req.key]
		}
		if req.del {
			if !ok {
				req.reply(response{err: ErrUnknownStream})
				continue
			}
			plans = append(plans, plan{req: req})
			recs = append(recs, wal.KeyedRecord{Key: req.key, Delete: true, Parent: req.parent})
			// A delete ends the key's run; a later create in the same
			// batch starts over at 0.
			deleted[req.key] = true
			delete(newStates, req.key)
			delete(startAt, req.key)
			continue
		}
		delete(deleted, req.key)
		start, have := startAt[req.key]
		if !have {
			if ok {
				start = st.FW.Seen()
			}
			// New keys start at 0.
		}
		if !ok {
			created, err := sh.createState(req.key)
			if err != nil {
				req.reply(response{err: err})
				continue
			}
			st = created
			newStates[req.key] = st
		}
		plans = append(plans, plan{req: req, st: st, start: start, fresh: !ok})
		startAt[req.key] = start + int64(len(req.values))
		recs = append(recs, wal.KeyedRecord{Key: req.key, Start: start, Values: req.values, Parent: req.parent})
	}
	if len(plans) == 0 {
		return
	}

	// Phase B: durability — one group commit for the whole batch.
	degradedAck := false
	if sh.w != nil {
		switch {
		case sh.degraded.Load() && sh.eng.cfg.OnPersistError == onPersistRefuse:
			sh.failBatch(plans, newStates, ErrDegraded)
			return
		case sh.degraded.Load():
			degradedAck = true
		default:
			if err := sh.w.AppendBatch(recs); err != nil {
				sh.rm().appendFailures.Inc()
				if sh.br.Failure() {
					sh.enterDegraded("wal append failures tripped the breaker", err)
				}
				// Only a shard already in degraded mode (breaker tripped)
				// downgrades the ack; until then a failed append is an error —
				// every 200 stays either durable or explicitly degraded.
				if !sh.degraded.Load() || sh.eng.cfg.OnPersistError == onPersistRefuse {
					sh.failBatch(plans, newStates, fmt.Errorf("wal append: %w", err))
					return
				}
				degradedAck = true
			} else {
				sh.br.Success()
			}
		}
	}

	// Phase C: apply and reply.
	for _, p := range plans {
		if p.req.del {
			sh.dropState(p.req.key)
			sh.dirtyGen++
			p.req.reply(response{})
			continue
		}
		if p.fresh {
			if _, installed := sh.streams[p.req.key]; !installed {
				sh.installState(p.req.key, p.st)
			}
		}
		seen := sh.apply(p)
		sh.applied += int64(len(p.req.values))
		sh.dirtyGen++
		if degradedAck {
			sh.rm().degradedBatches.Inc()
			sh.rm().degradedPoints.Add(int64(len(p.req.values)))
		}
		p.req.reply(response{seen: seen, degraded: degradedAck})
	}
}

// apply lands one planned request's values in its stream's summaries and
// runs a due audit, all under the stream's lock, and returns the
// stream's position after the request. Call from process, with sh.mu
// held for writing.
func (sh *shard) apply(p plan) int64 {
	st := p.st
	st.mu.Lock()
	defer st.guardUnlock(sh)
	sh.eng.failAt("ingest.apply")
	if st.FW.IncrementalRebuild() {
		// Incremental cover repair makes per-batch maintenance
		// amortized sub-millisecond, so maintain eagerly — one repair
		// pass per drained request — and keep read latency flat.
		// Exact engines stay lazy: maintenance defers to the next
		// query's flush rather than paying a full rebuild per ingest.
		st.FW.PushBatch(p.req.values)
	} else {
		for _, v := range p.req.values {
			st.FW.PushLazy(v)
		}
	}
	for _, v := range p.req.values {
		st.Agg.Push(v)
		st.GK.Insert(v)
		st.Sed.Push(v)
		st.Stats.Push(v)
	}
	st.countEndpoints(sh.eng.aggEndpoints)
	if st.Aud != nil {
		// Shadow audit: feed the exact ring/reservoir, and when an
		// interval's worth of points has landed, replay the panel
		// against the summaries just updated above.
		st.Aud.ObserveBatch(p.req.values, p.start)
		if st.Aud.Due() {
			sh.runAudit(p.req.key, st)
		}
	}
	return st.FW.Seen()
}

// failBatch replies err to every still-unreplied planned request and
// releases the key-quota slots of states created for this batch but
// never installed. Call with sh.mu held.
//
//lint:ignore mutex-discipline runs under process()'s sh.mu
func (sh *shard) failBatch(plans []plan, newStates map[string]*State, err error) {
	for range newStates {
		sh.releaseKeySlot()
	}
	for _, p := range plans {
		p.req.reply(response{err: err})
	}
}
