package cluster

import (
	"reflect"
	"testing"

	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
)

// orderTestSwitch wires a bare Switch with n ports whose deliveries append
// the port index to a shared log.
func orderTestSwitch(n int) (*sim.Engine, *Switch, *[]int) {
	eng := sim.NewEngine(1)
	reg := obs.NewRegistry()
	s := newSwitch(eng, reg)
	log := &[]int{}
	for i := 0; i < n; i++ {
		i := i
		s.addPort(newLink(eng, reg, "p", LinkConfig{}, func(nic.Batch) {
			*log = append(*log, i)
		}))
	}
	return eng, s, log
}

func batchFrom(src, dst nic.MAC) nic.Batch {
	return nic.Batch{Src: src, Dst: dst, Count: 1, Bytes: 1514}
}

// TestSwitchFloodOrderIsPortOrder pins that an unknown-destination flood
// delivers in ascending port order, repeatably, and that the flood's source
// is learned on its ingress port and moves when it is seen on another.
func TestSwitchFloodOrderIsPortOrder(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		eng, s, log := orderTestSwitch(5)
		s.ingress(2, batchFrom(0x11, 0x99)) // 0x99 unknown → flood
		eng.RunUntil(units.Time(units.Millisecond))
		want := []int{0, 1, 3, 4} // every port but the ingress, in order
		if !reflect.DeepEqual(*log, want) {
			t.Fatalf("trial %d: flood delivery order %v, want %v", trial, *log, want)
		}
		if p, ok := s.FDBPort(0x11); !ok || p != 2 {
			t.Fatalf("trial %d: 0x11 learned on port %d (%v), want 2", trial, p, ok)
		}
		// Re-learn 0x11 on a different port: the entry must move.
		s.ingress(1, batchFrom(0x11, nic.Broadcast))
		if p, _ := s.FDBPort(0x11); p != 1 {
			t.Fatalf("trial %d: re-learn did not move 0x11: port %d, want 1", trial, p)
		}
	}
}
