package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/drivers"
	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
	"repro/internal/workload"
)

// spec is one benchmark workload: a fleet or testbed built from the seed,
// advanced in fixed simulated steps to a fixed horizon.
type spec struct {
	name    string
	step    units.Duration
	horizon units.Duration
	build   func(seed uint64, sp *spans) (instance, error)
}

// instance is one built workload.
type instance interface {
	// advance moves the simulation forward by d (Engine.RunUntil or
	// Run.Step), the call whose host time the benchmark measures.
	advance(sp *spans, d units.Duration)
	engine() *sim.Engine
	// beds lists every testbed, for IOMMU, LAPIC and datapath access.
	beds() []*core.Testbed
	// finish closes the measurement, runs the invariant audit and
	// returns the simulated outputs.
	finish(sp *spans) outcome
}

// outcome is what one iteration produced.
type outcome struct {
	violations []string
	checks     []check // workload shape checks
	digest     string  // of the simulated outputs and every counter
	counts     map[string]float64
	accuracy   string // the model against the paper, one line
}

// check is one named pass/fail test of the simulated outputs.
type check struct {
	name   string
	ok     bool
	detail string
}

// The host workloads are the paper's Fig. 15 and Fig. 17 points at 60 VMs:
// ten 1 GbE ports, six HVM guests per port, UDP_STREAM at line rate split
// across each port's guests.
const (
	hostVMs   = 60
	hostPorts = 10
)

var specs = []spec{
	{name: "vf-scale", step: 20 * units.Millisecond, horizon: 2500 * units.Millisecond, build: buildVFScale},
	{name: "pv-scale", step: 10 * units.Millisecond, horizon: 1300 * units.Millisecond, build: buildPVScale},
	{name: "fleet-rebalance", step: 100 * units.Millisecond, horizon: 14 * units.Second, build: buildFleet},
}

func findSpec(name string) (spec, bool) {
	for _, w := range specs {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// inputRNG is the generator every seed-derived input draws from.
func inputRNG(name string, seed uint64) *sim.RNG {
	return sim.NewRNG(sim.StableSeed("perfbench", name, strconv.FormatUint(seed, 10)))
}

// guestRate is each guest's UDP rate: the port's line rate split evenly
// over the guests sharing it, as Fig. 15 and Fig. 17 offer it.
const guestRate = model.LineRateUDP / (hostVMs / hostPorts)

// hostRun is a single-testbed workload measured like Testbed.Measure: the
// utilization and goodput window opens once the warmup has elapsed.
type hostRun struct {
	tb     *core.Testbed
	warmup units.Duration
	wins   map[*core.Guest]workload.Window
	pv     bool
}

func buildHost(name string, pv bool, warmup units.Duration, seed uint64, sp *spans) (instance, error) {
	// The seed draws only the engine seed. Nothing on the host paths draws
	// from the engine's generator, so every seed gives the same outputs.
	cfg := core.Config{Seed: inputRNG(name, seed).Uint64() | 1, Ports: hostPorts, Opts: vmm.AllOptimizations}
	if pv {
		cfg.NetbackThreads = model.NetbackThreadsEnhanced
	}
	var tb *core.Testbed
	sp.do("core", "core.NewTestbed", func() { tb = core.NewTestbed(cfg) })
	for i := 0; i < hostVMs; i++ {
		var g *core.Guest
		var err error
		guest := fmt.Sprintf("guest-%d", i+1)
		if pv {
			sp.do("core", "Testbed.AddPVGuest", func() { g, err = tb.AddPVGuest(guest, vmm.HVM, vmm.Kernel2628, i%hostPorts) })
		} else {
			sp.do("core", "Testbed.AddSRIOVGuest", func() {
				g, err = tb.AddSRIOVGuest(guest, vmm.HVM, vmm.Kernel2628, i%hostPorts, i/hostPorts, netstack.DefaultAIC())
			})
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		tb.StartUDP(g, guestRate)
	}
	return &hostRun{tb: tb, warmup: warmup, pv: pv}, nil
}

func buildVFScale(seed uint64, sp *spans) (instance, error) {
	// AIC needs its 1.5 s warmup to sample the packet rate.
	return buildHost("vf-scale", false, 1500*units.Millisecond, seed, sp)
}

func buildPVScale(seed uint64, sp *spans) (instance, error) {
	return buildHost("pv-scale", true, 300*units.Millisecond, seed, sp)
}

func (h *hostRun) advance(sp *spans, d units.Duration) {
	sp.do("sim", "Engine.RunUntil", func() { h.tb.Eng.RunUntil(h.tb.Eng.Now().Add(d)) })
	if h.wins == nil && units.Duration(h.tb.Eng.Now()) >= h.warmup {
		h.wins = h.tb.BeginMeasure()
	}
}

func (h *hostRun) engine() *sim.Engine   { return h.tb.Eng }
func (h *hostRun) beds() []*core.Testbed { return []*core.Testbed{h.tb} }

func (h *hostRun) finish(sp *spans) outcome {
	tb := h.tb
	now := tb.Eng.Now()
	u, res := tb.EndMeasure(h.wins, units.Duration(now)-h.warmup, now)
	tb.StopAll()
	var vs []chaos.Violation
	sp.do("chaos", "chaos.AuditTestbed", func() { vs = chaos.AuditTestbed(tb) })

	var out bytes.Buffer
	fmt.Fprintf(&out, "util dom0=%s xen=%s guests=%s total=%s\n", ff(u.Dom0), ff(u.Xen), ff(u.Guests), ff(u.Total))
	var perGuest []string
	for g, r := range res {
		perGuest = append(perGuest, fmt.Sprintf("%s util=%s goodput=%d pkts=%d intr=%d drop=%d",
			g.Dom.Name, ff(u.PerGuest[g.Dom.Name]), r.Goodput, r.Packets, r.Interrupts, r.SockDropped))
	}
	sort.Strings(perGuest)
	for _, l := range perGuest {
		fmt.Fprintln(&out, l)
	}
	writeCounters(&out, tb.Obs, []*core.Testbed{tb}, tb.Eng)

	gbps := core.AggregateGoodput(res).Gbps()
	o := outcome{digest: digestOf(out.Bytes()), counts: hostCounts(tb.Obs, []*core.Testbed{tb}, tb.Eng)}
	for _, v := range vs {
		o.violations = append(o.violations, v.String())
	}
	o.counts["cpu.dom0_pct"] = u.Dom0
	o.counts["cpu.total_pct"] = u.Total
	if h.pv {
		// Fig. 17 at 60 VMs; the band is the figure's own shape check.
		o.checks = append(o.checks, check{"dom0 at 60 PV guests within [330, 560]%", u.Dom0 >= 330 && u.Dom0 <= 560, "dom0=" + ff(u.Dom0)})
		o.accuracy = fmt.Sprintf("dom0 %.1f%% vs paper ≈431%% (Fig. 17), error %+.1f%%", u.Dom0, 100*(u.Dom0/431-1))
	} else {
		o.checks = append(o.checks, check{"aggregate goodput within [9.3, 9.7] Gbps", gbps >= 9.3 && gbps <= 9.7, fmt.Sprintf("%.3f Gbps", gbps)})
		o.accuracy = fmt.Sprintf("aggregate goodput %.3f Gbps vs paper 9.57 Gbps (Fig. 15), error %+.2f%%", gbps, 100*(gbps/9.57-1))
	}
	return o
}

// fleetRun is fig28's spread/hot scenario under the controller: six VMs
// packed on host0 of three, which the spread policy rebalances with four
// DNIS live migrations.
type fleetRun struct {
	r *ctlplane.Run
}

func fleetScenario(seed uint64) *ctlplane.Scenario {
	rates := []int{500, 500, 200, 200, 200, 200}
	sc := &ctlplane.Scenario{
		Schema: ctlplane.SchemaVersion,
		Name:   "perfbench-fleet-rebalance",
		Seed:   inputRNG("fleet-rebalance", seed).Uint64() | 1,
		Hosts:  3, GuestMemoryMiB: 8,
		Policy:   "spread",
		WarmupMs: 9000, RunMs: 5000,
	}
	for i, rate := range rates {
		client := 1 + i%2
		sc.VMs = append(sc.VMs, ctlplane.VMSpec{
			Name: fmt.Sprintf("vm%d", i), Host: 0, RateMbps: rate, ClientHost: &client,
		})
	}
	return sc
}

func buildFleet(seed uint64, sp *spans) (instance, error) {
	var r *ctlplane.Run
	var err error
	sp.do("ctlplane", "ctlplane.NewRun", func() { r, err = ctlplane.NewRun(fleetScenario(seed), 0, nil, nil) })
	if err != nil {
		return nil, fmt.Errorf("fleet-rebalance: %w", err)
	}
	return &fleetRun{r: r}, nil
}

func (f *fleetRun) advance(sp *spans, d units.Duration) {
	sp.do("ctlplane", "Run.Step", func() { f.r.Step(d) })
}

func (f *fleetRun) engine() *sim.Engine { return f.r.Cluster().Eng }

func (f *fleetRun) beds() []*core.Testbed {
	var bs []*core.Testbed
	for _, h := range f.r.Cluster().Hosts() {
		bs = append(bs, h.Bed)
	}
	return bs
}

func (f *fleetRun) finish(sp *spans) outcome {
	var rep *ctlplane.Report
	sp.do("ctlplane", "Run.Finish", func() { rep = f.r.Finish() })
	enc, err := rep.Encode()
	if err != nil {
		enc = []byte(err.Error())
	}
	cl := f.r.Cluster()
	var out bytes.Buffer
	out.Write(enc)
	writeCounters(&out, cl.Obs, f.beds(), cl.Eng)

	o := outcome{digest: digestOf(out.Bytes()), counts: hostCounts(cl.Obs, f.beds(), cl.Eng),
		violations: rep.Violations}
	fleetCounts(o.counts, cl, rep)
	o.checks = []check{
		{"report encodes", err == nil, fmt.Sprint(err)},
		{"spread migrates the excess off host0", rep.PlacementChurn >= 3, fmt.Sprintf("churn=%d", rep.PlacementChurn)},
		{"every migration completed", rep.FailedMigrations == 0, fmt.Sprintf("failed=%d", rep.FailedMigrations)},
		{"p99 migration downtime within the 2 s recovery budget", rep.DowntimeP99Us > 0 && rep.DowntimeP99Us <= 2_000_000, fmt.Sprintf("p99=%dµs", rep.DowntimeP99Us)},
	}
	o.accuracy = fmt.Sprintf("goodput %d Mbps, %d migrations: unvalidated (an extension with no paper value)", rep.GoodputMbps, rep.Migrations)
	return o
}

// writeCounters appends every deterministic counter the layers expose: the
// obs registry (counters, gauges, histograms), each testbed's IOMMU and
// hypervisor counters and datapath stats, and the engine's event counts.
func writeCounters(out *bytes.Buffer, reg *obs.Registry, beds []*core.Testbed, eng *sim.Engine) {
	if err := reg.WriteJSON(out); err != nil {
		fmt.Fprintf(out, "registry: %v\n", err)
	}
	for i, tb := range beds {
		writeMap(out, fmt.Sprintf("bed%d.iommu", i), tb.IOMMU.Counters.Snapshot())
		writeMap(out, fmt.Sprintf("bed%d.hv", i), tb.HV.Counters.Snapshot())
		for j, dp := range datapaths(tb) {
			fmt.Fprintf(out, "bed%d.dp%d.%s %+v\n", i, j, dp.Kind(), dp.Stats())
		}
	}
	fmt.Fprintf(out, "engine processed=%d pending=%d\n", eng.Processed(), eng.Pending())
}

func writeMap(out *bytes.Buffer, prefix string, m map[string]int64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "%s.%s=%d\n", prefix, k, m[k])
	}
}

// datapaths is every datapath of a testbed: its software backends, then
// each guest's VF driver.
func datapaths(tb *core.Testbed) []drivers.Datapath {
	var dps []drivers.Datapath
	for _, dp := range tb.Datapaths() {
		dps = append(dps, dp)
	}
	for _, g := range tb.Guests() {
		if g.VF != nil {
			dps = append(dps, g.VF)
		}
	}
	return dps
}

// hostCounts reads the per-layer operation counts from public accessors.
func hostCounts(reg *obs.Registry, beds []*core.Testbed, eng *sim.Engine) map[string]float64 {
	c := map[string]float64{"sim.events": float64(eng.Processed())}
	var dma, walks, delivered, recv, got float64
	for _, tb := range beds {
		dma += float64(tb.IOMMU.Counters.Get("dma"))
		walks += float64(tb.IOMMU.Counters.Get("ptwalk_accesses"))
		for _, g := range tb.Guests() {
			delivered += float64(g.Recv.Stats.AppPackets)
		}
		for _, dp := range datapaths(tb) {
			s := dp.Stats()
			recv += float64(s.Received)
			got += float64(s.Delivered)
		}
	}
	kpkt := delivered / 1e3
	c["iommu.dma"] = dma
	c["iommu.walks_per_dma"] = ratio(walks, dma)
	c["base.delivered_kpkt"] = kpkt
	c["nic.intr_per_kpkt"] = ratio(float64(reg.SumCounters("nic.", ".intr_fired")), kpkt)
	c["vmm.exits_per_kpkt"] = ratio(float64(reg.SumCounters("vmm.exits.", "")), kpkt)
	c["vmm.intr_exits"] = float64(reg.Counter("vmm.exits.extint").Value() + reg.Counter("vmm.exits.eoi").Value())
	c["drivers.delivered_ratio"] = ratio(got, recv)
	return c
}

// fleetCounts adds the fabric, migration and controller counts.
func fleetCounts(c map[string]float64, cl *cluster.Cluster, rep *ctlplane.Report) {
	var dom0, total float64
	now := cl.Eng.Now()
	for _, h := range cl.Hosts() {
		dom0 += h.Bed.Meter.Utilization(h.Bed.HV.Dom0().Name, now)
		total += h.Bed.Meter.TotalUtilization(now)
	}
	c["cpu.dom0_pct"] = dom0
	c["cpu.total_pct"] = total
	c["cluster.fabric_drops"] = float64(cl.FabricDrops())
	c["ctlplane.reconciles"] = float64(cl.Obs.Counter("ctl.reconciles").Value())
	c["migration.downtime_p99_ms"] = float64(rep.DowntimeP99Us) / 1e3
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ff formats a float with every digit, so a digest sees any change.
func ff(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func digestOf(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:8])
}
