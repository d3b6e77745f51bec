package drivers

import (
	"testing"

	"repro/internal/nic"
	"repro/internal/units"
	"repro/internal/vmm"
)

// TestNetbackSteadyStateZeroAlloc holds the PV datapath to the SR-IOV
// path's allocation discipline: once warm, a wire batch (FromNIC → poll →
// serve → copy thread → deliver) and an inter-VM batch (LocalTransfer) to
// a PVM and a PV-on-HVM guest allocate nothing.
func TestNetbackSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs AllocsPerRun")
	}
	r := newRig(t, vmm.AllOptimizations)
	nb := NewNetback(r.hv, 2)
	pvm, pvmRecv := r.addGuest(t, "pvm", vmm.PVM, vmm.Kernel2628)
	hvm, hvmRecv := r.addGuest(t, "hvm", vmm.HVM, vmm.Kernel2628)
	macs := []nic.MAC{0xb0, 0xb1}
	if _, err := nb.CreateVif(pvm, macs[0], pvmRecv); err != nil {
		t.Fatal(err)
	}
	if _, err := nb.CreateVif(hvm, macs[1], hvmRecv); err != nil {
		t.Fatal(err)
	}
	round := func() {
		for _, mac := range macs {
			nb.FromNIC(nic.Batch{Dst: mac, Count: 8, Bytes: 8 * 1514})
			nb.LocalTransfer(nic.Batch{Dst: mac, Count: 4, Bytes: 4 * 1514})
		}
		r.eng.RunUntil(r.eng.Now().Add(netbackPollInterval + units.Millisecond))
	}
	for i := 0; i < 16; i++ {
		round()
	}
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("steady-state netback round allocates %.1f/op; want 0", n)
	}
	if nb.Dropped != 0 || nb.InFlight() != 0 {
		t.Fatalf("dropped %d, in flight %d; want a drained, lossless backend", nb.Dropped, nb.InFlight())
	}
	if want := int64(217 * 2 * 12); nb.Delivered != want {
		t.Fatalf("delivered %d packets, want %d", nb.Delivered, want)
	}
	if pvmRecv.Stats.AppPackets == 0 || hvmRecv.Stats.AppPackets == 0 {
		t.Fatal("both guests must receive")
	}
}
