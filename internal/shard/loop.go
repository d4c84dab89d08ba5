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
	st       *State // the stream the request was queued on; Ingest drains it
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
// write-ahead-logs each batch with one group fsync, queues each request's
// values on its stream, and replies per request.
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
	fresh bool // st was created for this batch and is not installed yet
}

// process runs one batch: plan (resolve states and WAL records), persist
// (one group commit for the whole batch), apply (queue each request's
// values on its stream, or drop a deleted stream, and reply). The
// shard's write lock is held across all three, so lookups wait for the
// batch and the stream map never shows a half-planned create or delete.
// No stream's lock is taken: each reply carries the request's state, and
// Ingest drains it after the write lock is gone, so a stream busy in a
// drain or a reader's callback holds up only its own requests. A panic
// inside quarantines the shard via the lock guard and the recovery here
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
				start = st.logged
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
		plans = append(plans, plan{req: req, st: st, fresh: !ok})
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
				if sh.appendFails++; sh.appendFails >= sh.eng.cfg.BreakerThreshold {
					sh.enterDegraded("wal append failures tripped the breaker", err)
				}
				// Only a shard already in degraded mode (breaker open)
				// downgrades the ack; until then a failed append is an error —
				// every 200 stays either durable or explicitly degraded.
				if !sh.degraded.Load() || sh.eng.cfg.OnPersistError == onPersistRefuse {
					sh.failBatch(plans, newStates, fmt.Errorf("wal append: %w", err))
					return
				}
				degradedAck = true
			} else {
				sh.appendFails = 0
			}
		}
	}

	// Phase C: apply and reply. A request's values join its stream's queue
	// in WAL order; the stream's next drain pushes them into its window.
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
		sh.eng.failAt("ingest.apply")
		seen := p.st.enqueue(p.req.values)
		sh.applied += int64(len(p.req.values))
		sh.dirtyGen++
		if degradedAck {
			sh.rm().degradedBatches.Inc()
			sh.rm().degradedPoints.Add(int64(len(p.req.values)))
		}
		p.req.reply(response{seen: seen, degraded: degradedAck, st: p.st})
	}
}

// failBatch replies err to every still-unreplied planned request and
// releases the key-quota slots of states created for this batch but
// never installed. Call with sh.mu held.
func (sh *shard) failBatch(plans []plan, newStates map[string]*State, err error) {
	for range newStates {
		sh.releaseKeySlot()
	}
	for _, p := range plans {
		p.req.reply(response{err: err})
	}
}
