package chaos_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
)

// FuzzChaosCampaign decodes a campaign config from raw bytes, plans it
// twice to prove determinism, validates every scenario, then arms and
// runs it on a real testbed and audits the invariants. The encoding is
// deliberately hand-writable so the committed corpus stays readable:
//
//	[0:8]  seed (little-endian)
//	[8]    ports        → clamped to 1..4
//	[9]    VFs per port → clamped to 0..7
//	[10:12] storm-window end, ms (little-endian) → clamped to 1..500
//	[12]   storm rate ×10 (faults/s)             → clamped to 0..99
//	[13]   cascade probability ×100              → clamped to 0..100
//
// Short inputs fall back to defaults for the missing tail.
func FuzzChaosCampaign(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{42, 0, 0, 0, 0, 0, 0, 0, 2, 7, 0xf4, 0x01, 20, 30})
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 1, 0, 50, 0, 99, 100})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 4, 3, 0x2c, 0x01, 5, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		buf := make([]byte, 14)
		copy(buf, data)
		seed := binary.LittleEndian.Uint64(buf[0:8])
		ports := clamp(int(buf[8]), 1, 4)
		vfs := clamp(int(buf[9]), 0, 7)
		endMs := clamp(int(binary.LittleEndian.Uint16(buf[10:12])), 1, 500)
		rate := float64(clamp(int(buf[12]), 0, 99)) / 10
		casc := float64(clamp(int(buf[13]), 0, 100)) / 100

		cfg := chaos.Config{
			Name:  "fuzz",
			Start: units.Time(100 * units.Millisecond),
			End:   units.Time(100*units.Millisecond + units.Duration(endMs)*units.Millisecond),
			Ports: ports, VFsPerPort: vfs,
			StormRate:   rate,
			CascadeProb: casc, CascadeDelay: 10 * units.Millisecond,
		}
		a := chaos.Plan(sim.NewEngine(seed), cfg)
		b := chaos.Plan(sim.NewEngine(seed), cfg)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatal("plan not deterministic for identical seed and config")
		}
		var prev units.Time
		for _, s := range a {
			if s.At < cfg.Start || s.At >= cfg.End {
				t.Fatalf("%s at %v outside [%v, %v)", s.Kind, s.At, cfg.Start, cfg.End)
			}
			if s.At < prev {
				t.Fatal("plan not sorted")
			}
			prev = s.At
			if s.Port < 0 || s.Port >= ports || s.VF < 0 || (vfs > 0 && s.VF >= vfs) {
				t.Fatalf("%s targets port %d VF %d outside %d×%d", s.Kind, s.Port, s.VF, ports, vfs)
			}
		}

		tb := core.NewTestbed(core.Config{Seed: seed, Ports: ports, Opts: vmm.AllOptimizations})
		inj := fault.NewInjector(tb.Eng)
		for i := range tb.Ports {
			inj.Watch(tb.Ports[i], tb.PFs[i])
		}
		if err := chaos.Arm(inj, a); err != nil {
			t.Fatalf("planned campaign failed to arm: %v", err)
		}
		tb.Eng.RunUntil(cfg.End.Add(1500 * units.Millisecond))
		tb.StopAll()
		if vs := chaos.AuditTestbed(tb); len(vs) != 0 {
			t.Fatalf("campaign violated invariants: %v", vs)
		}
	})
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
