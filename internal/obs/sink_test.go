package obs

import (
	"testing"

	"repro/internal/units"
)

func TestSinkEmitAndEvents(t *testing.T) {
	s := NewSink(4, 4)
	for i := 0; i < 3; i++ {
		s.Emit(units.Time(i), "cat", "name", "")
	}
	ev := s.Events()
	if len(ev) != 3 {
		t.Fatalf("events = %d", len(ev))
	}
	for i, e := range ev {
		if e.At != units.Time(i) {
			t.Fatalf("order broken: %v", ev)
		}
	}
	if len(s.Spans()) != 0 {
		t.Fatalf("instants leaked into spans: %v", s.Spans())
	}
}

// TestSinkRingWraps checks that the instant ring keeps the most recent
// capacity events, oldest first, once it has wrapped more than once.
func TestSinkRingWraps(t *testing.T) {
	s := NewSink(3, 0)
	for i := 0; i < 7; i++ {
		s.Emit(units.Time(i), "c", "n", "")
	}
	ev := s.Events()
	if len(ev) != 3 {
		t.Fatalf("retained = %d", len(ev))
	}
	// The three most recent, in order: 4, 5, 6.
	for i, want := range []units.Time{4, 5, 6} {
		if ev[i].At != want {
			t.Fatalf("ring order: %v", ev)
		}
	}
}

// TestSinkRingOverwritesOldestFirst checks the first wrap: once the ring is
// full, one more event overwrites only the oldest, and the survivors keep
// their emission order.
func TestSinkRingOverwritesOldestFirst(t *testing.T) {
	s := NewSink(4, 0)
	for i, name := range []string{"e1", "e2", "k1", "k2"} {
		s.Emit(units.Time(i), "c", name, "")
	}
	ev := s.Events()
	if len(ev) != 4 {
		t.Fatalf("len = %d, events %v", len(ev), ev)
	}
	for i, want := range []string{"e1", "e2", "k1", "k2"} {
		if ev[i].Name != want {
			t.Fatalf("order: got %v", ev)
		}
	}
	s.Emit(4, "c", "k3", "")
	ev = s.Events()
	if len(ev) != 4 || ev[0].Name != "e2" || ev[3].Name != "k3" {
		t.Fatalf("after wrap: %v", ev)
	}
}

// TestSinkRingsRetainIndependently checks that a span flood wraps the span
// ring without evicting a single instant.
func TestSinkRingsRetainIndependently(t *testing.T) {
	s := NewSink(3, 2)
	s.Emit(0, "c", "first", "")
	for i := 0; i < 100; i++ {
		s.Add("q", "hop", units.Time(i), 1)
	}
	if ev := s.Events(); len(ev) != 1 || ev[0].Name != "first" {
		t.Fatalf("span flood evicted instants: %v", ev)
	}
	if sp := s.Spans(); len(sp) != 2 || sp[0].Start != 98 || sp[1].Start != 99 {
		t.Fatalf("span ring: %v", sp)
	}
}

// TestNilSinkInert checks that a nil sink records nothing and reads back
// nil for both kinds.
func TestNilSinkInert(t *testing.T) {
	var s *Sink
	s.Emit(0, "c", "n", "")
	s.Add("t", "n", 0, 1)
	if s.Events() != nil || s.Spans() != nil {
		t.Fatal("nil sink must be inert")
	}
}

func TestEventString(t *testing.T) {
	for _, c := range []struct {
		e    Event
		want string
	}{
		{Event{At: units.Time(units.Second), Category: "irq", Name: "bind", Detail: "vector=34"}, "[1.000s] irq: bind (vector=34)"},
		{Event{At: units.Time(2 * units.Second), Category: "hotplug", Name: "remove"}, "[2.000s] hotplug: remove"},
	} {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestSinkBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative capacity should panic")
		}
	}()
	NewSink(-1, 1)
}

// TestNilSinkZeroAllocs pins the tracing-off cost: a nil sink's Emit and
// Add allocate nothing.
func TestNilSinkZeroAllocs(t *testing.T) {
	var s *Sink
	name := "eth0/vf0"
	allocs := testing.AllocsPerRun(100, func() {
		s.Emit(0, "nic", "intr", name)
		s.Add(name, "dma→intr", 0, 1)
	})
	if allocs != 0 {
		t.Fatalf("nil sink allocated %.0f times per call, want 0", allocs)
	}
}

func TestNewHist(t *testing.T) {
	h := NewHist(10*units.Microsecond, 100*units.Microsecond, units.Millisecond)
	h.Observe(5 * units.Microsecond)
	h.Observe(50 * units.Microsecond)
	h.Observe(500 * units.Microsecond)
	h.Observe(5 * units.Millisecond) // overflow bucket
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 5*units.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
	wantMean := (5*units.Microsecond + 50*units.Microsecond + 500*units.Microsecond + 5*units.Millisecond) / 4
	if h.Mean() != wantMean {
		t.Fatalf("mean = %v, want %v", h.Mean(), wantMean)
	}
	if q := h.Quantile(0); q != 10*units.Microsecond {
		t.Fatalf("q0 = %v", q)
	}
	if q := h.Quantile(1); q != 5*units.Millisecond {
		t.Fatalf("q1 = %v", q)
	}
	// The index-2 observation (500µs) lies in the (100µs, 1ms] bucket, so
	// the reported bound is 1ms.
	if q := h.Quantile(0.5); q != units.Millisecond {
		t.Fatalf("q0.5 = %v", q)
	}
	if q := h.Quantile(0.25); q != 100*units.Microsecond {
		t.Fatalf("q0.25 = %v", q)
	}
}

func TestNewHistEmpty(t *testing.T) {
	h := NewHist(units.Millisecond)
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestNewHistBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-ascending bounds should panic")
		}
	}()
	NewHist(units.Millisecond, units.Microsecond)
}
