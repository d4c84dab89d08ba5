package streamhist

import "streamhist/internal/trace"

// Tracer is the library's flight recorder: a fixed-capacity, preallocated
// ring buffer of typed span events (push, rebuild, per-level CreateList
// stats, memo/warm summaries, WAL and checkpoint activity, HTTP
// requests). Attach one to a maintainer with SetTracer; the daemon
// wires the same recorder through every layer and serves the ring at
// /debug/trace/events (JSON) and /debug/trace/chrome (Perfetto-loadable).
//
// A nil *Tracer everywhere means "disabled" and costs nothing: no
// allocations, no clock reads on the push hot path. Recording on a live
// tracer is also allocation-free — a fixed-size struct copy into the
// preallocated ring under a short mutex.
type Tracer = trace.Recorder

// NewTracer creates a flight recorder whose ring holds capacity events;
// older events are overwritten (and counted as dropped). capacity must
// be positive; trace.DefaultCapacity is a reasonable daemon default.
func NewTracer(capacity int) (*Tracer, error) { return trace.New(capacity) }

// TracerDefaultCapacity is the suggested ring size for long-running
// processes: at roughly a dozen events per traced rebuild it retains the
// last few hundred pushes.
const TracerDefaultCapacity = trace.DefaultCapacity
