package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runner"
)

// collectSummary is a two-experiment run: fig08 with a figure and a
// registry of counters from several layers, fig20 with neither.
func collectSummary() *runner.Summary {
	reg := obs.NewRegistry()
	reg.Counter("nic.pf0.vf3.intr_fired").Add(101)
	reg.Counter("vmm.exits.eoi_write").Add(102)
	reg.Counter("chaos.invariant_violations")
	reg.Gauge("vf.pf0.vf3.itr_us").Set(8)
	reg.Histogram("path.vm.dom1.dma_to_intr").Observe(3)

	fig := &report.Figure{ID: "fig08"}
	fig.AddSeries("cpu", "%").Add("1-VM", 42)
	fig.CheckTrue("holds", true, "")
	sum := &runner.Summary{
		Parallel: 1,
		Wall:     2 * time.Second,
		Tasks:    6,
		Events:   4000,
		Obs:      obs.NewRegistry(),
		Results: []runner.Result{
			{ID: "fig20", Title: "migration", Wall: time.Second, Tasks: 1},
			{ID: "fig08", Title: "coalescing", Figure: fig, Wall: 500 * time.Millisecond, Tasks: 5,
				Allocs: 7, AllocBytes: 700, Obs: reg},
		},
	}
	sum.Obs.Merge(reg)
	sum.TaskWall.Observe(0.25)
	sum.TaskWall.Observe(0.75)
	return sum
}

// TestCollectMapsSummaryIntoFields checks that each experiment's counters
// land in its own record, and that Totals carries exactly the run-level
// figures — no counter is summed into a suite-wide field.
func TestCollectMapsSummaryIntoFields(t *testing.T) {
	f := Collect(collectSummary(), 5000, 60)
	data, err := json.Marshal(f.Totals)
	if err != nil {
		t.Fatal(err)
	}
	var totals map[string]float64
	if err := json.Unmarshal(data, &totals); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"wall_ns":            2e9,
		"tasks":              6,
		"task_wall_mean_sec": 0.5,
		"task_wall_max_sec":  0.75,
		"sim_events":         4000,
		"events_per_sec":     2000,
		"alloc_bytes":        5000,
		"mallocs":            60,
	}
	if !reflect.DeepEqual(totals, want) {
		t.Errorf("totals = %v, want %v", totals, want)
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
	if len(e.Metrics) != 1 || e.Metrics[0] != (report.Metric{Series: "cpu", Unit: "%", Value: 42}) {
		t.Errorf("fig08 headline = %+v, want cpu = 42 %%", e.Metrics)
	}
	wantCounters := map[string]int64{
		"nic.pf0.vf3.intr_fired":     101,
		"vmm.exits.eoi_write":        102,
		"chaos.invariant_violations": 0,
	}
	if !reflect.DeepEqual(e.Counters, wantCounters) {
		t.Errorf("fig08 counters = %v, want %v", e.Counters, wantCounters)
	}
	fig20 := f.Experiments[1]
	if fig20.ChecksPass {
		t.Error("an experiment without a figure must not pass its checks")
	}
	if len(fig20.Counters) != 0 {
		t.Errorf("fig20 has no registry but got counters %v", fig20.Counters)
	}
}

// TestCollectLeavesRegistriesUnchanged pins that writing a BENCH record
// does not change what -metrics-out writes: reading counters for the
// record must not register any into the run's or an experiment's registry.
func TestCollectLeavesRegistriesUnchanged(t *testing.T) {
	sum := collectSummary()
	snap := func() []string {
		var out []string
		for _, reg := range []*obs.Registry{sum.Obs, sum.Results[1].Obs} {
			var buf bytes.Buffer
			if err := reg.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			out = append(out, buf.String())
		}
		return out
	}
	before := snap()
	Collect(sum, 0, 0)
	after := snap()
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("registry %d changed under Collect:\nbefore %s\nafter  %s", i, before[i], after[i])
		}
	}
}
