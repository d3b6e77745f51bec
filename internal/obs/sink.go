package obs

import (
	"fmt"

	"repro/internal/units"
)

// Event is one categorised instant: a control-plane, fault or recovery
// occurrence such as an interrupt binding, a mailbox drop, an FLR, a
// hot-plug signal or a bond failover.
type Event struct {
	At       units.Time
	Category string
	Name     string
	Detail   string
}

// String renders the event as one line.
func (e Event) String() string {
	if e.Detail == "" {
		return fmt.Sprintf("[%v] %s: %s", e.At, e.Category, e.Name)
	}
	return fmt.Sprintf("[%v] %s: %s (%s)", e.At, e.Category, e.Name, e.Detail)
}

// Span is one timed segment of a packet batch's journey, attributed to a
// display track (typically the queue name) for the trace exporter.
type Span struct {
	Track string
	Name  string
	Start units.Time
	Dur   units.Duration
}

// ring retains the most recent cap(buf) values. A zero-capacity ring
// discards everything.
type ring[T any] struct {
	buf  []T
	next int
}

func (r *ring[T]) add(v T) {
	if cap(r.buf) == 0 {
		return
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.next] = v
	}
	r.next = (r.next + 1) % cap(r.buf)
}

// items returns the retained values, oldest first. Until the ring wraps,
// next == len(buf), so the first append is empty.
func (r *ring[T]) items() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Sink is the simulator's one event sink: a ring of instants (Emit) and a
// ring of packet spans (Add), read back by the Chrome trace exporter. The
// two rings retain independently, so a flood of spans never evicts the
// rarer control-plane instants.
//
// A nil *Sink discards everything. Callers whose event detail needs
// formatting check for nil first, so tracing off costs one branch and no
// allocation.
type Sink struct {
	events ring[Event]
	spans  ring[Span]
}

// NewSink creates a sink retaining the most recent events instants and
// spans spans. A zero capacity discards that kind.
func NewSink(events, spans int) *Sink {
	if events < 0 || spans < 0 {
		panic("obs: sink capacities must not be negative")
	}
	return &Sink{
		events: ring[Event]{buf: make([]Event, 0, events)},
		spans:  ring[Span]{buf: make([]Span, 0, spans)},
	}
}

// SpanBuffer is the span-only name of Sink that the benchmark harness
// builds against.
type SpanBuffer = Sink

// NewSpanBuffer creates a sink that retains the most recent capacity spans
// and no instants.
func NewSpanBuffer(capacity int) *SpanBuffer { return NewSink(0, capacity) }

// Emit records an instant. Safe on nil.
func (s *Sink) Emit(at units.Time, category, name, detail string) {
	if s == nil {
		return
	}
	s.events.add(Event{At: at, Category: category, Name: name, Detail: detail})
}

// Add records a span. Safe on nil.
func (s *Sink) Add(track, name string, start units.Time, dur units.Duration) {
	if s == nil {
		return
	}
	s.spans.add(Span{Track: track, Name: name, Start: start, Dur: dur})
}

// Events returns the retained instants in emission order (nil on nil).
func (s *Sink) Events() []Event {
	if s == nil {
		return nil
	}
	return s.events.items()
}

// Spans returns the retained spans in insertion order (nil on nil).
func (s *Sink) Spans() []Span {
	if s == nil {
		return nil
	}
	return s.spans.items()
}
