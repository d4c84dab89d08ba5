package trace

import (
	"bytes"
	"io"
	"strconv"
)

// WriteChrome renders events in the Chrome trace-event JSON format, which
// Perfetto (ui.perfetto.dev) and chrome://tracing load directly. Spans
// become complete ("X") slices emitted at End time; instants with a
// duration become slices too, and zero-duration instants become thread-
// scoped instant ("i") marks. Each event type gets its own track (tid),
// labeled by a thread_name metadata record; span/parent IDs and the A/N
// payloads travel in args. namer (may be nil) resolves (type, code) to a
// display name, e.g. an HTTP path.
//
// The JSON is built by hand with strconv: the flat structure doesn't
// warrant reflection-based encoding.
func WriteChrome(w io.Writer, events []Event, namer func(EventType, uint8) string) error {
	var b bytes.Buffer
	b.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)

	first := true
	comma := func() {
		if !first {
			b.WriteByte(',')
		}
		first = false
	}

	// One named track per event type that appears.
	var present [numEventTypes]bool
	for _, e := range events {
		if e.Type < numEventTypes {
			present[e.Type] = true
		}
	}
	for t := EventType(1); t < numEventTypes; t++ {
		if !present[t] {
			continue
		}
		comma()
		b.WriteString(`{"name":"thread_name","ph":"M","pid":1,"tid":`)
		b.WriteString(strconv.Itoa(int(t)))
		b.WriteString(`,"args":{"name":`)
		b.WriteString(strconv.Quote(t.String()))
		b.WriteString(`}}`)
	}

	for _, e := range events {
		if e.Ph == PhaseBegin {
			// The matching PhaseEnd carries the whole span as one "X"
			// slice; a Begin without an End is an in-flight span, visible
			// in the raw events export but not renderable as a slice.
			continue
		}
		comma()
		b.WriteString(`{"name":`)
		name := ""
		if namer != nil {
			name = namer(e.Type, e.Code)
		}
		if name == "" {
			name = e.Type.String()
			if e.Type == EvLevel {
				name = "level " + strconv.Itoa(int(e.Code))
			}
		}
		b.WriteString(strconv.Quote(name))
		if e.Dur > 0 {
			// A slice spans [TS-Dur, TS]: events are stamped at completion.
			b.WriteString(`,"ph":"X","ts":`)
			b.WriteString(strconv.FormatFloat(float64(e.TS-e.Dur)/1e3, 'f', 3, 64))
			b.WriteString(`,"dur":`)
			b.WriteString(strconv.FormatFloat(float64(e.Dur)/1e3, 'f', 3, 64))
		} else {
			b.WriteString(`,"ph":"i","s":"t","ts":`)
			b.WriteString(strconv.FormatFloat(float64(e.TS)/1e3, 'f', 3, 64))
		}
		b.WriteString(`,"pid":1,"tid":`)
		b.WriteString(strconv.Itoa(int(e.Type)))
		b.WriteString(`,"args":{"span":`)
		b.WriteString(strconv.FormatUint(uint64(e.Span), 10))
		b.WriteString(`,"parent":`)
		b.WriteString(strconv.FormatUint(uint64(e.Parent), 10))
		b.WriteString(`,"code":`)
		b.WriteString(strconv.Itoa(int(e.Code)))
		b.WriteString(`,"a":`)
		b.WriteString(strconv.FormatInt(e.A, 10))
		b.WriteString(`,"n":`)
		b.WriteString(strconv.FormatInt(e.N, 10))
		b.WriteString(`}}`)
	}
	b.WriteString("]}\n")
	_, err := w.Write(b.Bytes())
	return err
}
