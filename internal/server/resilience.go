// Self-healing glue at the HTTP layer. The durability machinery itself —
// per-shard WAL circuit breakers, degraded-mode ingestion, recovery
// supervisors that probe the disk and re-anchor the log, and panic
// containment with state quarantine — lives in internal/shard; this file
// keeps the pieces that are about HTTP: adaptive Retry-After hints and
// the panic-recovery middleware.
//
// The durability contract under faults:
//
//   - A 200 ingest response without "degraded":true means the batch is
//     durable to the configured fsync policy — a crash cannot silently
//     lose it.
//   - When a shard's WAL appends keep failing its breaker trips and that
//     shard enters degraded mode. Under OnPersistDegrade ingests keep
//     flowing memory-only and every response carries "degraded":true —
//     an explicit marker that those points are NOT yet durable. Under
//     OnPersistRefuse ingests are refused with 503/degraded. Other
//     shards are unaffected.
//   - A supervisor goroutine per shard probes the disk on the breaker's
//     jittered exponential backoff and re-anchors the shard's log on the
//     first success, so previously-degraded points become durable the
//     moment the shard reports healthy again.
//   - A panic that strikes while a shard's state lock is held leaves its
//     summaries in an unknown half-mutated state: the shard quarantines
//     (its mutating requests refused, /healthz unhealthy) and, with
//     RestoreOnPanic, rebuilds from its checkpoint plus WAL replay in
//     the background.
package server

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"

	"streamhist/internal/shard"
	"streamhist/internal/trace"
)

// Degraded-mode policies for Options.OnPersistError.
const (
	// OnPersistDegrade accepts ingests memory-only while a shard's
	// durability layer is down, marking responses with "degraded":true.
	OnPersistDegrade = "degrade"
	// OnPersistRefuse refuses ingests with 503 while the shard's
	// durability layer is down, preserving the property that every 200 is
	// durable.
	OnPersistRefuse = "refuse"
)

// maxRetryAfterSeconds caps the adaptive Retry-After hint.
const maxRetryAfterSeconds = 8

// retryAfterSeconds picks a Retry-After for refusal responses (429
// overload, 503 degraded-refuse): it scales with in-flight saturation so
// a saturated server pushes clients back harder, and is jittered ±25%
// so a synchronized client fleet does not come back as one thundering
// herd. Always in [1, maxRetryAfterSeconds].
func retryAfterSeconds(used, capacity int, rnd func() float64) int {
	frac := 1.0
	if capacity > 0 {
		frac = float64(used) / float64(capacity)
		if frac > 1 {
			frac = 1
		}
		if frac < 0 {
			frac = 0
		}
	}
	base := 1 + frac*float64(maxRetryAfterSeconds-1)
	sec := int(math.Round(base * (0.75 + 0.5*rnd())))
	if sec < 1 {
		sec = 1
	}
	if sec > maxRetryAfterSeconds {
		sec = maxRetryAfterSeconds
	}
	return sec
}

// setRetryAfter writes the adaptive hint for this server's current
// saturation.
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds(len(s.inflight), cap(s.inflight), rand.Float64)))
}

// recoverware converts handler panics into the standard JSON error
// envelope instead of a dropped connection. It sits outside
// http.TimeoutHandler on purpose: TimeoutHandler re-raises its child's
// panic in the parent goroutine, so this is the layer that finally
// catches it. Lock-held panics arrive wrapped as *shard.LockedPanic (the
// quarantine already happened in the shard's unlock guard, closer to the
// fault, and was logged and traced there).
func (s *Server) recoverware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &panicRecorder{ResponseWriter: w}
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				// The standard "abort this request" sentinel: let net/http
				// handle it.
				panic(p)
			}
			s.panics.Inc()
			if _, locked := p.(*shard.LockedPanic); !locked {
				s.tr.Instant(trace.EvPanic, 0, 0, 0, 0, 0)
				s.logger.Error("handler panic contained", "panic", fmt.Sprint(p), "path", r.URL.Path)
			}
			if !rec.wrote {
				writeError(rec, http.StatusInternalServerError, errInternal, "internal error")
			}
		}()
		next.ServeHTTP(rec, r)
	})
}

// panicRecorder tracks whether the response was started, so recoverware
// only writes the error envelope onto an untouched response.
type panicRecorder struct {
	http.ResponseWriter
	wrote bool
}

func (pr *panicRecorder) WriteHeader(code int) {
	pr.wrote = true
	pr.ResponseWriter.WriteHeader(code)
}

func (pr *panicRecorder) Write(b []byte) (int, error) {
	pr.wrote = true
	return pr.ResponseWriter.Write(b)
}

// failAt is a test seam: tests install s.failpoint to inject a panic or
// delay at a named HTTP-layer point (engine-layer points install via
// Engine.SetFailpoint). Production servers have a nil hook and pay one
// predictable branch.
func (s *Server) failAt(point string) {
	if s.failpoint != nil {
		s.failpoint(point)
	}
}
