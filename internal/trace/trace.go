// Package trace is the project's flight recorder: a fixed-capacity,
// preallocated ring buffer of typed events giving span-level visibility
// into rebuilds, WAL activity and HTTP requests, with bounded overhead.
//
// The design follows the obs package's nil-is-disabled contract:
//
//   - Nil is the disabled state. Every method on a nil *Recorder is a
//     no-op that performs no allocation and reads no clock, so hot paths
//     carry unconditional tracing calls and pay a pointer test when
//     tracing is off. There is no build tag and no global switch: plumb a
//     *Recorder to enable, plumb nil to disable.
//
//   - Recording is allocation-free. An Event is a fixed-size value
//     written into a preallocated ring slot under a short mutex; span IDs
//     come from an atomic counter. The only allocating operations are the
//     explicitly cold ones: Snapshot, the Chrome export, and slow-rebuild
//     captures.
//
//   - The ring holds the most recent Capacity events. Older events are
//     overwritten (counted as dropped), which bounds memory no matter how
//     long the process runs — the flight-recorder property: when
//     something goes wrong, the ring holds the events leading up to it.
//
// Timestamps are monotonic nanoseconds since the recorder's epoch
// (time.Since against a wall anchor, so the monotonic clock is used and
// events convert back to wall time via Epoch). Spans form a tree: each
// Begin/End pair carries its own ID and its parent's, threaded from HTTP
// middleware through ingest into fixed-window maintenance and down to
// each rebuild level.
package trace

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamhist/internal/obs"
)

// SpanID identifies one span in the recorder's tree. 0 is "no span" (a
// root, or tracing disabled upstream).
type SpanID uint64

// EventType is the kind of one recorded event.
type EventType uint8

// Event types, one per instrumented operation. The zero value is
// reserved so an all-zero ring slot is recognizably vacant.
const (
	EvNone       EventType = iota
	EvHTTP                 // span: one HTTP request. Code = path code; A,N = trace-id hi,lo; End A = status code.
	EvIngest               // span: one ingest batch (parse through apply). N = points in the batch.
	EvPush                 // span: one full per-point maintenance Push.
	EvRebuild              // span: one interval-queue rebuild. A = window length; N = pending points flushed.
	EvLevel                // instant: one CreateList level. Code = k; A = probes (evals + memo hits); N = intervals produced.
	EvMemo                 // instant: probe-memo summary of one rebuild. A = hits; N = misses.
	EvWarm                 // instant: warm-start summary of one rebuild. A = seeded endpoints; N = fallbacks.
	EvWALAppend            // instant: one WAL append. A = framed bytes; N = values.
	EvWALSync              // instant: one WAL fsync on the append path.
	EvCheckpoint           // instant: one checkpoint. A = snapshot bytes; N = stream position.
	EvCapture              // instant: a slow-rebuild capture was written. A = events captured.
	EvBreaker              // instant: a circuit-breaker transition. A = from state; N = to state.
	EvPanic                // instant: a contained handler panic. A = 1 when the state lock was held.
	EvIncrRepair           // instant: incremental cover-maintenance summary. A = endpoints repaired; N = levels maintained. Its parent EvRebuild span carries Code 1 to mark the incremental path.
	EvAudit                // instant: one accuracy-audit pass. Code = shard; Dur = pass duration; A = panel queries; N = queries over the error budget.
	EvSLOBreach            // instant: an accuracy SLO entered breach. Code = shard; A = rolling compliance in ppm; N = error-budget burn rate in thousandths.
	EvDrift                // instant: the drift detector fired and re-anchored its reference. Code = shard; A = normalized L2 distance in millionths; N = cumulative alarms.

	numEventTypes // sentinel; keep last
)

// String returns the event type's stable lower-case name.
func (t EventType) String() string {
	switch t {
	case EvHTTP:
		return "http"
	case EvIngest:
		return "ingest"
	case EvPush:
		return "push"
	case EvRebuild:
		return "rebuild"
	case EvLevel:
		return "level"
	case EvMemo:
		return "memo"
	case EvWarm:
		return "warm"
	case EvWALAppend:
		return "wal_append"
	case EvWALSync:
		return "wal_sync"
	case EvCheckpoint:
		return "checkpoint"
	case EvCapture:
		return "capture"
	case EvBreaker:
		return "breaker"
	case EvPanic:
		return "panic"
	case EvIncrRepair:
		return "incr_repair"
	case EvAudit:
		return "audit"
	case EvSLOBreach:
		return "slo_breach"
	case EvDrift:
		return "drift"
	}
	return "unknown"
}

// Phase distinguishes span boundaries from point events.
type Phase uint8

// Event phases.
const (
	PhaseInstant Phase = iota // a point event; Dur may carry the operation's elapsed time
	PhaseBegin                // a span opened
	PhaseEnd                  // a span closed; Dur is the span's duration
)

// String returns the phase's stable lower-case name.
func (p Phase) String() string {
	switch p {
	case PhaseBegin:
		return "begin"
	case PhaseEnd:
		return "end"
	}
	return "instant"
}

// Event is one ring slot: a fixed-size record with no pointers, so the
// ring is a single contiguous allocation and recording is a struct copy.
// The meaning of A and N depends on Type (see the type constants).
type Event struct {
	TS     int64 // nanoseconds since the recorder's epoch (monotonic)
	Dur    int64 // elapsed nanoseconds (PhaseEnd and timed instants; else 0)
	Span   SpanID
	Parent SpanID
	A, N   int64
	Type   EventType
	Ph     Phase
	Code   uint8 // per-type small payload: path code (EvHTTP), level k (EvLevel)
}

// Recorder is the flight recorder. The zero value is unusable; construct
// with New, or use a nil *Recorder as the disabled no-op instance.
// Methods are safe for concurrent use.
type Recorder struct {
	epoch            time.Time // wall anchor; TS = time.Since(epoch)
	traceHi, traceLo uint64    // process-run trace ID used when a caller brings none
	spanIDs          atomic.Uint64

	mu   sync.Mutex
	buf  []Event // guarded by mu; ring storage, preallocated at New
	next uint64  // guarded by mu; total events emitted since New

	// Instrumentation (nil handles no-op; see SetRegistry).
	events   *obs.Counter
	dropped  *obs.Counter
	captures *obs.Counter
	capFails *obs.Counter

	// namer resolves (type, code) to a display name for exports; set
	// once at wiring time (SetCodeNamer), before concurrent use.
	namer func(EventType, uint8) string

	// Slow-rebuild capture configuration; set once at wiring time
	// (SetSlowCapture), before concurrent use.
	slowNs  int64
	capDir  string
	capKeep int
	capMu   sync.Mutex
	capSeq  uint64 // guarded by capMu
}

// DefaultCapacity is a reasonable ring size for a daemon: at ~14 events
// per traced rebuild it holds the last few hundred pushes.
const DefaultCapacity = 8192

// New creates a recorder whose ring holds capacity events.
func New(capacity int) (*Recorder, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("trace: ring capacity must be positive, got %d", capacity)
	}
	hi, lo := rand.Uint64(), rand.Uint64()
	if hi == 0 && lo == 0 {
		lo = 1 // the all-zero trace ID is invalid in W3C trace context
	}
	return &Recorder{
		epoch:   time.Now(),
		traceHi: hi,
		traceLo: lo,
		buf:     make([]Event, capacity),
	}, nil
}

// SetRegistry attaches the recorder's instrumentation to a metrics
// registry: events recorded, events dropped by ring overwrite, captures
// written and capture failures. A nil registry detaches.
func (r *Recorder) SetRegistry(reg *obs.Registry) {
	if r == nil {
		return
	}
	r.events = reg.Counter("streamhist_trace_events_total", "Flight-recorder events recorded.")
	r.dropped = reg.Counter("streamhist_trace_events_dropped_total", "Flight-recorder events evicted from the ring by overwrite before export.")
	r.captures = reg.Counter("streamhist_trace_captures_total", "Slow-rebuild anomaly captures written.")
	r.capFails = reg.Counter("streamhist_trace_capture_failures_total", "Slow-rebuild anomaly captures that failed to write.")
}

// SetCodeNamer installs the display-name resolver exports use for
// (type, code) pairs — the server maps EvHTTP codes back to paths. Call
// during wiring, before the recorder is shared.
func (r *Recorder) SetCodeNamer(namer func(EventType, uint8) string) {
	if r == nil {
		return
	}
	r.namer = namer
}

// Epoch returns the wall-clock anchor event timestamps are relative to
// (the zero time on a nil recorder).
func (r *Recorder) Epoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.epoch
}

// Now returns nanoseconds since the recorder's epoch, on the monotonic
// clock. A nil recorder returns 0 without reading the clock.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// Capacity returns the ring capacity (0 on a nil recorder).
//
//lint:ignore mutex-discipline len(buf) is fixed at New and never changes
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// TraceID returns the recorder's process-run trace ID, used for requests
// that arrive without a traceparent of their own.
func (r *Recorder) TraceID() (hi, lo uint64) {
	if r == nil {
		return 0, 0
	}
	return r.traceHi, r.traceLo
}

// Total returns the number of events recorded since New.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Dropped returns the number of events the ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.droppedLocked()
}

// droppedLocked computes the overwrite count; callers hold r.mu.
//
//lint:ignore mutex-discipline runs with r.mu held by the caller
func (r *Recorder) droppedLocked() uint64 {
	if c := uint64(len(r.buf)); r.next > c {
		return r.next - c
	}
	return 0
}

// emit stamps and records one event. The ring write is a struct copy
// under a short mutex — no allocation, no clock read beyond the stamp.
func (r *Recorder) emit(e Event) {
	e.TS = int64(time.Since(r.epoch))
	r.mu.Lock()
	wrap := r.next >= uint64(len(r.buf))
	r.buf[r.next%uint64(len(r.buf))] = e
	r.next++
	r.mu.Unlock()
	r.events.Inc()
	if wrap {
		r.dropped.Inc()
	}
}

// Instant records a point event: an operation that is not a span of its
// own but belongs under parent. dur may carry the operation's elapsed
// time (the event is stamped at its end). No-op on a nil recorder.
func (r *Recorder) Instant(t EventType, code uint8, parent SpanID, dur time.Duration, a, n int64) {
	if r == nil {
		return
	}
	r.emit(Event{Dur: int64(dur), Parent: parent, A: a, N: n, Type: t, Ph: PhaseInstant, Code: code})
}

// Span is an in-flight span handle returned by StartSpan. The zero value
// (from a nil recorder) is a no-op: End returns 0 and ID returns 0, so
// span context threads through disabled layers for free.
type Span struct {
	r      *Recorder
	id     SpanID
	parent SpanID
	start  int64
	typ    EventType
	code   uint8
}

// StartSpan opens a span under parent (0 = root), records its Begin
// event and returns the handle End is called on. On a nil recorder it
// returns the zero Span without reading the clock.
func (r *Recorder) StartSpan(parent SpanID, t EventType, code uint8, a, n int64) Span {
	if r == nil {
		return Span{}
	}
	id := SpanID(r.spanIDs.Add(1))
	s := Span{r: r, id: id, parent: parent, start: r.Now(), typ: t, code: code}
	r.emit(Event{Span: id, Parent: parent, A: a, N: n, Type: t, Ph: PhaseBegin, Code: code})
	return s
}

// ID returns the span's ID (0 for the zero Span).
func (s Span) ID() SpanID { return s.id }

// Parent returns the parent span ID the span was opened under.
func (s Span) Parent() SpanID { return s.parent }

// End closes the span, records its End event and returns the measured
// duration (0 for the zero Span).
func (s Span) End(a, n int64) time.Duration {
	if s.r == nil {
		return 0
	}
	dur := s.r.Now() - s.start
	s.r.emit(Event{Dur: dur, Span: s.id, Parent: s.parent, A: a, N: n, Type: s.typ, Ph: PhaseEnd, Code: s.code})
	return time.Duration(dur)
}

// Snapshot returns a copy of the ring's events, oldest first. It is the
// cold read side: it allocates and briefly blocks writers.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

// snapshotLocked copies the ring oldest-first; callers hold r.mu.
//
//lint:ignore mutex-discipline runs with r.mu held by the caller
func (r *Recorder) snapshotLocked() []Event {
	c := uint64(len(r.buf))
	n := r.next
	if n > c {
		n = c
	}
	out := make([]Event, n)
	start := (r.next - n) % c
	copied := copy(out, r.buf[start:start+min(n, c-start)])
	copy(out[copied:], r.buf[:int(n)-copied])
	return out
}

// EventJSON is the export wire form of one event, shared by the
// /debug/trace/events endpoint and capture files.
type EventJSON struct {
	TSNs   int64  `json:"ts_ns"`
	DurNs  int64  `json:"dur_ns,omitempty"`
	Type   string `json:"type"`
	Phase  string `json:"phase"`
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	Code   uint8  `json:"code,omitempty"`
	Name   string `json:"name,omitempty"`
	A      int64  `json:"a,omitempty"`
	N      int64  `json:"n,omitempty"`
}

// JSON converts an event to its wire form, resolving Code through namer
// (which may be nil).
func (e Event) JSON(namer func(EventType, uint8) string) EventJSON {
	out := EventJSON{
		TSNs:   e.TS,
		DurNs:  e.Dur,
		Type:   e.Type.String(),
		Phase:  e.Ph.String(),
		Span:   uint64(e.Span),
		Parent: uint64(e.Parent),
		Code:   e.Code,
		A:      e.A,
		N:      e.N,
	}
	if namer != nil {
		out.Name = namer(e.Type, e.Code)
	}
	return out
}

// ParseTraceparent parses a W3C trace-context traceparent header
// ("00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>"), returning
// the 128-bit trace ID and the caller's span ID. ok is false for a
// missing or malformed header, the all-zero trace ID, or the all-zero
// parent ID.
func ParseTraceparent(h string) (hi, lo uint64, parent SpanID, ok bool) {
	parts := strings.Split(h, "-")
	if len(parts) != 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return 0, 0, 0, false
	}
	if parts[0] == "ff" {
		return 0, 0, 0, false // forbidden version
	}
	if _, err := strconv.ParseUint(parts[0], 16, 8); err != nil {
		return 0, 0, 0, false
	}
	hi, err := strconv.ParseUint(parts[1][:16], 16, 64)
	if err != nil {
		return 0, 0, 0, false
	}
	lo, err = strconv.ParseUint(parts[1][16:], 16, 64)
	if err != nil {
		return 0, 0, 0, false
	}
	p, err := strconv.ParseUint(parts[2], 16, 64)
	if err != nil {
		return 0, 0, 0, false
	}
	if _, err := strconv.ParseUint(parts[3], 16, 8); err != nil {
		return 0, 0, 0, false
	}
	if (hi == 0 && lo == 0) || p == 0 {
		return 0, 0, 0, false
	}
	return hi, lo, SpanID(p), true
}

// FormatTraceparent renders a traceparent header carrying the given
// trace ID and span ID, version 00 with the sampled flag set.
func FormatTraceparent(hi, lo uint64, span SpanID) string {
	var b [55]byte
	b[0], b[1], b[2] = '0', '0', '-'
	hexPad(b[3:19], hi)
	hexPad(b[19:35], lo)
	b[35] = '-'
	hexPad(b[36:52], uint64(span))
	b[52], b[53], b[54] = '-', '0', '1'
	return string(b[:])
}

// hexPad writes v into dst as zero-padded lower-case hex filling dst.
func hexPad(dst []byte, v uint64) {
	const digits = "0123456789abcdef"
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = digits[v&0xf]
		v >>= 4
	}
}
