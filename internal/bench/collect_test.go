package bench

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runner"
)

// TestCollectMapsSummaryIntoFields feeds Collect a Summary whose registry
// holds one known counter per gated total and checks that each value, and
// each run-level figure, lands in its BENCH.json field.
func TestCollectMapsSummaryIntoFields(t *testing.T) {
	gated := []struct {
		counter string
		field   string
	}{
		{"nic.pf0.vf3.intr_fired", "intr_fired"},
		{"vmm.exits.eoi_write", "vm_exits"},
		{"mailbox.retries", "mailbox_retries"},
		{"cluster.link.tor-host1.dropped_pkts", "fabric_drops"},
		{"cluster.migration.downtime_us", "migration_downtime_us"},
		{"chaos.invariant_violations", "invariant_violations"},
		{"chaos.mttr_us", "mttr_us"},
		{"dp.ovs.cache_hits", "dp_cache_hits"},
		{"dp.ovs.cache_misses", "dp_cache_misses"},
		{"ctl.placement_churn", "placement_churn"},
		{"ctl.p99_downtime_us", "ctl_p99_downtime_us"},
		{"cluster.clos.tier.leaf-spine.dropped_pkts", "clos_drops"},
		{"cluster.clos.fastpath.demotions", "fastpath_demotions"},
	}
	reg := obs.NewRegistry()
	for i, g := range gated {
		reg.Counter(g.counter).Add(int64(101 + i))
	}

	fig := &report.Figure{ID: "fig08"}
	fig.AddSeries("cpu", "%").Add("1-VM", 42)
	fig.CheckTrue("holds", true, "")
	sum := &runner.Summary{
		Parallel: 1,
		Wall:     2 * time.Second,
		Tasks:    6,
		Events:   4000,
		Obs:      reg,
		Results: []runner.Result{
			{ID: "fig20", Title: "migration", Wall: time.Second, Tasks: 1},
			{ID: "fig08", Title: "coalescing", Figure: fig, Wall: 500 * time.Millisecond, Tasks: 5,
				Allocs: 7, AllocBytes: 700},
		},
	}
	sum.TaskWall.Observe(0.25)
	sum.TaskWall.Observe(0.75)

	f := Collect(sum, 5000, 60)
	data, err := json.Marshal(f.Totals)
	if err != nil {
		t.Fatal(err)
	}
	var totals map[string]float64
	if err := json.Unmarshal(data, &totals); err != nil {
		t.Fatal(err)
	}
	for i, g := range gated {
		if got, want := totals[g.field], float64(101+i); got != want {
			t.Errorf("%s: %s = %v, want %v (from counter %s)", g.field, g.field, got, want, g.counter)
		}
	}
	for field, want := range map[string]float64{
		"wall_ns":            2e9,
		"tasks":              6,
		"task_wall_mean_sec": 0.5,
		"task_wall_max_sec":  0.75,
		"sim_events":         4000,
		"events_per_sec":     2000,
		"alloc_bytes":        5000,
		"mallocs":            60,
	} {
		if got := totals[field]; got != want {
			t.Errorf("%s = %v, want %v", field, got, want)
		}
	}

	if f.Parallel != 1 || len(f.Experiments) != 2 {
		t.Fatalf("parallel=%d experiments=%d, want 1 and 2", f.Parallel, len(f.Experiments))
	}
	e := f.Experiments[0]
	if e.ID != "fig08" || f.Experiments[1].ID != "fig20" {
		t.Fatalf("experiments not sorted by id: %s, %s", e.ID, f.Experiments[1].ID)
	}
	if e.WallNS != 5e8 || e.Tasks != 5 || !e.ChecksPass || e.Allocs != 7 || e.AllocBytes != 700 {
		t.Errorf("fig08 record = %+v", e)
	}
	if m, ok := e.Metric("cpu"); !ok || m.Value != 42 {
		t.Errorf("fig08 headline cpu = %+v, %v; want 42", m, ok)
	}
	if f.Experiments[1].ChecksPass {
		t.Error("an experiment without a figure must not pass its checks")
	}
}
