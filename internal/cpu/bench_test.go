package cpu

import (
	"testing"

	"repro/internal/sim"
)

func BenchmarkMeterCharge(b *testing.B) {
	m := NewMeter(testSys)
	s := m.Resolve(Account{"dom0", "netback.0"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ChargeSlot(s, 2800)
	}
}

func TestMeterChargeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs AllocsPerRun")
	}
	m := NewMeter(testSys)
	s := m.Resolve(Account{"dom0", "netback.0"})
	m.ChargeSlot(s, 1) // the first charge of a window records the slot
	if n := testing.AllocsPerRun(1000, func() { m.ChargeSlot(s, 2800) }); n != 0 {
		t.Fatalf("resolved charge allocates %.1f/op; want 0", n)
	}
}

// poolCycle submits one job to a pool of a bare engine and runs the engine
// until it completes.
func poolCycle(eng *sim.Engine, p *Pool, j Job) {
	p.Submit(j)
	eng.Run()
}

func newBenchPool() (*sim.Engine, *Pool, Job) {
	eng := sim.NewEngine(1)
	p := NewPool(eng, NewMeter(testSys), Account{"dom0", "netback"}, 4, 64)
	n := 0
	run := func() { n++ }
	j := Job{Cost: 2800, Run: run}
	for i := 0; i < 64; i++ { // warm the rings, the arena and the window
		p.Submit(j)
	}
	eng.Run()
	return eng, p, j
}

func BenchmarkPoolSubmit(b *testing.B) {
	eng, p, j := newBenchPool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		poolCycle(eng, p, j)
	}
}

func TestPoolSubmitZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs AllocsPerRun")
	}
	eng, p, j := newBenchPool()
	if n := testing.AllocsPerRun(1000, func() { poolCycle(eng, p, j) }); n != 0 {
		t.Fatalf("submit → complete allocates %.1f/op; want 0", n)
	}
	if p.Served() != 64+1001 {
		t.Fatalf("served = %d, want %d", p.Served(), 64+1001)
	}
}
