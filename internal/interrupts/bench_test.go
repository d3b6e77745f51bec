package interrupts

import "testing"

// lapicCycle is one interrupt's trip through the virtual LAPIC, as the
// hypervisor drives it for an SR-IOV guest: inject, check and acknowledge
// delivery, then the guest's EOI. Another vector stays in service at a
// lower priority throughout, so every lookup sees a non-empty ISR.
func lapicCycle(l *LAPIC, v Vector) {
	if l.Inject(v) {
		if _, ok := l.Pending(); ok {
			l.Ack()
		}
	}
	l.EOI()
}

func newBusyLAPIC() *LAPIC {
	l := &LAPIC{}
	l.Inject(0x31)
	l.Ack()
	return l
}

func BenchmarkLAPICInjectAckEOI(b *testing.B) {
	l := newBusyLAPIC()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lapicCycle(l, Vector(0x40+i&0x7f))
	}
}

func TestLAPICCycleZeroAllocs(t *testing.T) {
	l := newBusyLAPIC()
	i := 0
	if n := testing.AllocsPerRun(1000, func() { lapicCycle(l, Vector(0x40+i&0x7f)); i++ }); n != 0 {
		t.Fatalf("inject/ack/EOI allocates %.1f/op; want 0", n)
	}
}
