package chaos_test

import (
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/migration"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/units"
)

func violationNames(vs []chaos.Violation) []string {
	var names []string
	for _, v := range vs {
		names = append(names, v.Invariant)
	}
	return names
}

func hasViolation(vs []chaos.Violation, invariant string) bool {
	for _, v := range vs {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

func TestCleanRunHasNoViolations(t *testing.T) {
	tb, _, _ := chaosRig(t, 42)
	tb.Eng.RunUntil(units.Time(units.Second))
	tb.StopAll()
	if vs := chaos.AuditTestbed(tb); len(vs) != 0 {
		t.Fatalf("clean run violated invariants: %v", vs)
	}
}

// TestAuditSurvivesFaultStorm is the tentpole integration check: a dense
// randomized storm of every fault kind, with cascades, must leave every
// conservation and liveness invariant intact once recovery has run.
func TestAuditSurvivesFaultStorm(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		tb, _, inj := chaosRig(t, seed)
		cfg := chaos.Config{
			Name:  "storm-test",
			Start: units.Time(500 * units.Millisecond), End: units.Time(4 * units.Second),
			Ports: 2, VFsPerPort: 7, StormRate: 3,
			CascadeProb: 0.3, CascadeDelay: 50 * units.Millisecond,
		}
		plan := chaos.Plan(tb.Eng, cfg)
		if err := chaos.Arm(inj, plan); err != nil {
			t.Fatal(err)
		}
		tb.Eng.RunUntil(cfg.End)
		tb.StopAll()
		if vs := chaos.AuditTestbed(tb); len(vs) != 0 {
			t.Fatalf("seed %d: storm of %d faults violated invariants: %v", seed, len(plan), vs)
		}
	}
}

// TestTamperedCountersDetected proves the checker actually distinguishes:
// breaking each conservation identity by hand must surface exactly that
// invariant.
func TestTamperedCountersDetected(t *testing.T) {
	tb, g, _ := chaosRig(t, 42)
	tb.Eng.RunUntil(units.Time(500 * units.Millisecond))
	tb.StopAll()
	if vs := chaos.AuditTestbed(tb); len(vs) != 0 {
		t.Fatalf("pre-tamper violations: %v", vs)
	}

	q := g.VF.Queue()
	q.Stats.RxPackets += 3
	tb.Netback.Received += 5
	tb.Ports[0].PFQueue().Stats.SpuriousIntr++
	vs := chaos.CheckTestbed(tb)
	for _, want := range []string{"ring-conservation", "backend-conservation", "interrupt-liveness"} {
		if !hasViolation(vs, want) {
			t.Errorf("tampered %s not detected; got %v", want, violationNames(vs))
		}
	}
	// Undo and confirm the checker goes quiet again.
	q.Stats.RxPackets -= 3
	tb.Netback.Received -= 5
	tb.Ports[0].PFQueue().Stats.SpuriousIntr--
	if vs := chaos.CheckTestbed(tb); len(vs) != 0 {
		t.Fatalf("violations after restoring counters: %v", vs)
	}
}

func TestRecordFeedsRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	chaos.Record(reg, nil)
	if got := reg.Counter("chaos.invariant_violations").Value(); got != 0 {
		t.Fatalf("clean record = %d, want explicit 0", got)
	}
	chaos.Record(reg, []chaos.Violation{
		{Invariant: "ring-conservation", Where: "eth0/vf0"},
		{Invariant: "ring-conservation", Where: "eth0/vf1"},
		{Invariant: "pool-integrity", Where: "sim.Arena"},
	})
	if got := reg.Counter("chaos.invariant_violations").Value(); got != 3 {
		t.Fatalf("total = %d, want 3", got)
	}
	if got := reg.Counter("chaos.violations.ring-conservation").Value(); got != 2 {
		t.Fatalf("ring-conservation = %d, want 2", got)
	}
}

func TestMigrationTerminationChecks(t *testing.T) {
	hung := &cluster.Migration{}
	vs := chaos.CheckMigrations([]*cluster.Migration{hung})
	if !hasViolation(vs, "migration-termination") {
		t.Fatal("result-less migration not flagged")
	}
	if !strings.Contains(vs[0].Detail, "neither completed nor aborted") {
		t.Fatalf("detail %q does not explain the hang", vs[0].Detail)
	}

	aborted := &cluster.Migration{Result: &migration.Result{Err: errFake{}}}
	if vs := chaos.CheckMigrations([]*cluster.Migration{aborted}); len(vs) != 0 {
		t.Fatalf("clean abort flagged: %v", vs)
	}

	incoherent := &cluster.Migration{Result: &migration.Result{
		DowntimeStart: units.Time(2 * units.Second),
		DowntimeEnd:   units.Time(units.Second),
	}}
	if vs := chaos.CheckMigrations([]*cluster.Migration{incoherent}); !hasViolation(vs, "migration-termination") {
		t.Fatal("inverted downtime window not flagged")
	}
}

type errFake struct{}

func (errFake) Error() string { return "fake abort" }

// TestCTRLResetKeepsRingConservation resets a VF through its CTRL register
// while packets occupy its ring: the wiped packets must be accounted as
// reset drops, as a hardware reset accounts them, or the ring-conservation
// identity breaks.
func TestCTRLResetKeepsRingConservation(t *testing.T) {
	tb, g, _ := chaosRig(t, 42)
	q := g.VF.Queue()
	now := units.Time(200 * units.Millisecond)
	tb.Eng.RunUntil(now)
	for q.Occupied() == 0 {
		if now > units.Time(units.Second) {
			t.Fatal("the VF ring never held a packet")
		}
		now += units.Time(10 * units.Microsecond)
		tb.Eng.RunUntil(now)
	}
	occupied := q.Occupied()
	q.Function().MMIOWrite(0, nic.RegCTRL, nic.CtrlReset)
	if q.Occupied() != 0 || q.Stats.ResetDropped < int64(occupied) {
		t.Fatalf("CTRL reset left occupied=%d, reset_dropped=%d; want 0 and ≥ %d",
			q.Occupied(), q.Stats.ResetDropped, occupied)
	}
	g.VF.Reinit()
	tb.Eng.RunUntil(now + units.Time(100*units.Millisecond))
	tb.StopAll()
	if vs := chaos.AuditTestbed(tb); len(vs) != 0 {
		t.Fatalf("CTRL reset with %d packets in the ring violated invariants: %v", occupied, vs)
	}
}
