package stats

import (
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Add("a", 3)
	c.Add("a", 4)
	c.Add("b", 1)
	if c.Get("a") != 7 || c.Get("b") != 1 || c.Get("missing") != 0 {
		t.Fatalf("unexpected values: %s", c)
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	snap := c.Snapshot()
	c.Reset()
	if c.Get("a") != 0 {
		t.Fatal("reset did not clear")
	}
	if snap["a"] != 7 {
		t.Fatal("snapshot mutated by reset")
	}
}

func TestCountersZeroValue(t *testing.T) {
	var c Counters
	c.Add("x", 2)
	if c.Get("x") != 2 {
		t.Fatal("zero-value Counters should work after Add")
	}
}

func TestCounterHandle(t *testing.T) {
	c := NewCounters()
	k := c.Counter("dma")
	if len(c.Names()) != 0 || len(c.Snapshot()) != 0 || c.String() != "" {
		t.Fatal("a resolved but untouched counter must stay unlisted")
	}
	k.Add(2)
	c.Add("dma", 3)
	if c.Get("dma") != 5 || c.Snapshot()["dma"] != 5 {
		t.Fatalf("handle and name disagree: %s", c)
	}
	c.Reset()
	if len(c.Names()) != 0 || c.Get("dma") != 0 {
		t.Fatal("reset did not clear the handle's counter")
	}
	k.Add(0)
	if got := c.String(); got != "dma=0" {
		t.Fatalf("after Add(0) String = %q, want the touched counter listed", got)
	}
}

func TestCountersString(t *testing.T) {
	c := NewCounters()
	c.Add("b", 2)
	c.Add("a", 1)
	if got := c.String(); got != "a=1 b=2" {
		t.Fatalf("String = %q", got)
	}
}

func TestSeriesBuckets(t *testing.T) {
	s := NewSeries(100 * units.Millisecond)
	s.Add(50*units.Time(units.Millisecond), 1)
	s.Add(150*units.Time(units.Millisecond), 2)
	s.Add(160*units.Time(units.Millisecond), 3)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Bucket(0) != 1 || s.Bucket(1) != 5 {
		t.Fatalf("buckets = %v", s.Values())
	}
	if s.Bucket(99) != 0 || s.Bucket(-1) != 0 {
		t.Fatal("out-of-range buckets should be 0")
	}
	if s.Total() != 6 {
		t.Fatalf("total = %v", s.Total())
	}
	if s.BucketStart(1) != units.Time(100*units.Millisecond) {
		t.Fatalf("bucket start = %v", s.BucketStart(1))
	}
	// 5 units in a 0.1s bucket = 50/s.
	if got := s.Rate(1); got != 50 {
		t.Fatalf("rate = %v", got)
	}
}

func TestSeriesBadWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero width should panic")
		}
	}()
	NewSeries(0)
}

func TestSeriesTotalProperty(t *testing.T) {
	// Sum of bucket values always equals sum of added values.
	prop := func(raw []uint16) bool {
		s := NewSeries(units.Millisecond)
		var want float64
		for _, r := range raw {
			t := units.Time(r) * units.Time(units.Microsecond)
			s.Add(t, float64(r%7))
			want += float64(r % 7)
		}
		return s.Total() == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
