package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/report"
)

// CompareOptions tune the regression gate.
type CompareOptions struct {
	// WallThresholdPct is the allowed slowdown of wall-clock figures
	// (per-experiment wall, total events/sec, go-bench ns/op) before the
	// comparison fails. Wall clocks are noisy on shared CI runners, so the
	// default is generous.
	WallThresholdPct float64
	// MetricThresholdPct is the allowed drift of deterministic headline
	// metrics and counters. The simulation is seeded, so any drift means
	// the model's behavior changed; the default tolerates
	// floating-point-level noise only.
	MetricThresholdPct float64
	// WallWarnOnly demotes wall-clock regressions (per-experiment wall,
	// events/sec, go-bench ns/op) to warnings while deterministic metrics
	// keep failing the gate — the right mode for noisy shared CI runners.
	WallWarnOnly bool
	// AllocThresholdPct is the allowed growth of allocation figures
	// (per-experiment allocs / alloc bytes, go-bench allocs/op and B/op)
	// before the comparison fails. Allocation counts are far steadier than
	// wall clocks — they don't depend on machine load — but small runtime
	// and library version effects exist, so the default sits between the
	// wall and metric thresholds.
	AllocThresholdPct float64
	// AllocWarnOnly demotes allocation regressions to warnings, the
	// introduction mode for the alloc gate.
	AllocWarnOnly bool
}

// DefaultCompareOptions: 25% on wall clocks, 0.1% on simulated metrics,
// 10% on allocation counts.
func DefaultCompareOptions() CompareOptions {
	return CompareOptions{WallThresholdPct: 25, MetricThresholdPct: 0.1, AllocThresholdPct: 10}
}

// Report is a comparison's outcome. Regressions and Missing fail the gate;
// Improvements and Warnings are informational.
type Report struct {
	Regressions  []string
	Missing      []string
	Improvements []string
	Warnings     []string
}

// Failed reports whether the gate should fail.
func (r *Report) Failed() bool { return len(r.Regressions) > 0 || len(r.Missing) > 0 }

// String renders the report for CI logs.
func (r *Report) String() string {
	var b strings.Builder
	section := func(name string, lines []string) {
		if len(lines) == 0 {
			return
		}
		fmt.Fprintf(&b, "%s (%d):\n", name, len(lines))
		for _, l := range lines {
			fmt.Fprintf(&b, "  - %s\n", l)
		}
	}
	section("REGRESSIONS", r.Regressions)
	section("MISSING", r.Missing)
	section("IMPROVEMENTS", r.Improvements)
	section("WARNINGS", r.Warnings)
	if b.Len() == 0 {
		return "no changes beyond thresholds\n"
	}
	return b.String()
}

// hasExperimentAllocs reports whether any experiment in the file carries
// per-experiment allocation figures (only serial runs record them).
func (f *File) hasExperimentAllocs() bool {
	for _, e := range f.Experiments {
		if e.Allocs != 0 || e.AllocBytes != 0 {
			return true
		}
	}
	return false
}

// counterMetrics lists the experiment's counters as unitless metrics in
// name order, so they gate through the same path as the headline metrics.
func (e Experiment) counterMetrics() []report.Metric {
	out := make([]report.Metric, 0, len(e.Counters))
	for name, v := range e.Counters {
		out = append(out, report.Metric{Series: name, Value: float64(v)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Series < out[j].Series })
	return out
}

// unitSuffix renders a unit after a value; counters have none.
func unitSuffix(unit string) string {
	if unit == "" {
		return ""
	}
	return " " + unit
}

// pctChange reports (cur-base)/base in percent; +Inf when base is zero and
// cur is not.
func pctChange(base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (cur - base) / base * 100
}

// Compare diffs cur against base. A regression is: a slower wall clock
// beyond the wall threshold, a deterministic metric or counter drifting
// beyond the metric threshold, a shape check newly failing, a nonzero
// invariant-violation count, or an experiment/metric/counter present in
// base but missing from cur.
func Compare(base, cur *File, opts CompareOptions) *Report {
	if opts.WallThresholdPct <= 0 {
		opts.WallThresholdPct = DefaultCompareOptions().WallThresholdPct
	}
	if opts.MetricThresholdPct <= 0 {
		opts.MetricThresholdPct = DefaultCompareOptions().MetricThresholdPct
	}
	if opts.AllocThresholdPct <= 0 {
		opts.AllocThresholdPct = DefaultCompareOptions().AllocThresholdPct
	}
	r := &Report{}
	// Per-experiment alloc figures are serial-only: they are recorded at
	// -parallel 1, where per-task attribution is exact, and stay zero on
	// parallel runs. Comparing a serial baseline against a parallel current
	// run therefore finds every alloc figure "missing" — a run-mode
	// artifact, not a regression. Recognize that shape, note it once, and
	// skip the per-experiment alloc gates.
	skipAllocs := cur.Parallel > 1 && base.hasExperimentAllocs() && !cur.hasExperimentAllocs()
	if skipAllocs {
		r.Warnings = append(r.Warnings, fmt.Sprintf(
			"alloc figures skipped: current run is parallel (parallel=%d) and per-experiment allocs are only recorded at -parallel 1; compare a serial run to gate them",
			cur.Parallel))
	}
	// wallRegress routes wall-based regressions to the failing or the
	// warn-only bucket.
	wallRegress := func(msg string) {
		if opts.WallWarnOnly {
			r.Warnings = append(r.Warnings, msg+" [wall warn-only]")
		} else {
			r.Regressions = append(r.Regressions, msg)
		}
	}
	// allocRegress does the same for allocation-based regressions.
	allocRegress := func(msg string) {
		if opts.AllocWarnOnly {
			r.Warnings = append(r.Warnings, msg+" [alloc warn-only]")
		} else {
			r.Regressions = append(r.Regressions, msg)
		}
	}
	// allocGate compares one allocation figure, gating only when both sides
	// recorded it (per-experiment allocs need a serial run; go-bench needs
	// -benchmem) — a missing side means "not measured", never a regression.
	allocGate := func(label, unit string, base, cur float64) {
		if base == 0 || cur == 0 {
			return
		}
		if d := pctChange(base, cur); d > opts.AllocThresholdPct {
			allocRegress(fmt.Sprintf("%s: %.4g → %.4g %s (+%.0f%% > %.0f%%)",
				label, base, cur, unit, d, opts.AllocThresholdPct))
		} else if d < -opts.AllocThresholdPct {
			r.Improvements = append(r.Improvements,
				fmt.Sprintf("%s: %.4g → %.4g %s (%.0f%%)", label, base, cur, unit, d))
		}
	}
	// gateDeterministic gates one experiment's deterministic figures of one
	// kind (headline metrics or counters) by name: drift beyond the metric
	// threshold is a regression, a name gone from cur is missing, and a
	// name the baseline never recorded is a warning rather than a silent
	// pass, so the baseline gets re-recorded.
	gateDeterministic := func(id, kind string, base, cur []report.Metric) {
		curBy := make(map[string]report.Metric, len(cur))
		for _, m := range cur {
			curBy[m.Series] = m
		}
		inBase := make(map[string]bool, len(base))
		for _, bm := range base {
			inBase[bm.Series] = true
			cm, ok := curBy[bm.Series]
			if !ok {
				r.Missing = append(r.Missing, fmt.Sprintf("%s: %s %q disappeared", id, kind, bm.Series))
				continue
			}
			if d := math.Abs(pctChange(bm.Value, cm.Value)); d > opts.MetricThresholdPct {
				r.Regressions = append(r.Regressions,
					fmt.Sprintf("%s: %s %s drifted %.10g → %.10g%s (±%.2f%% > %.2f%%; deterministic — behavior changed)",
						id, kind, bm.Series, bm.Value, cm.Value, unitSuffix(cm.Unit), d, opts.MetricThresholdPct))
			}
		}
		for _, cm := range cur {
			if !inBase[cm.Series] {
				r.Warnings = append(r.Warnings,
					fmt.Sprintf("%s: %s %q is new (no baseline value — ungated until the baseline is re-recorded)",
						id, kind, cm.Series))
			}
		}
	}

	for _, be := range base.Experiments {
		ce, ok := cur.Experiment(be.ID)
		if !ok {
			r.Missing = append(r.Missing, fmt.Sprintf("experiment %s disappeared", be.ID))
			continue
		}
		if be.ChecksPass && !ce.ChecksPass {
			r.Regressions = append(r.Regressions, fmt.Sprintf("%s: shape checks newly failing", be.ID))
		}
		if d := pctChange(float64(be.WallNS), float64(ce.WallNS)); d > opts.WallThresholdPct {
			wallRegress(fmt.Sprintf("%s: wall %.0fms → %.0fms (+%.0f%% > %.0f%%)",
				be.ID, float64(be.WallNS)/1e6, float64(ce.WallNS)/1e6, d, opts.WallThresholdPct))
		} else if d < -opts.WallThresholdPct {
			r.Improvements = append(r.Improvements,
				fmt.Sprintf("%s: wall %.0fms → %.0fms (%.0f%%)",
					be.ID, float64(be.WallNS)/1e6, float64(ce.WallNS)/1e6, d))
		}
		if !skipAllocs {
			allocGate(be.ID+": allocs", "allocs", float64(be.Allocs), float64(ce.Allocs))
			allocGate(be.ID+": alloc bytes", "B", float64(be.AllocBytes), float64(ce.AllocBytes))
		}
		gateDeterministic(be.ID, "metric", be.Metrics, ce.Metrics)
		gateDeterministic(be.ID, "counter", be.counterMetrics(), ce.counterMetrics())
	}
	for _, ce := range cur.Experiments {
		if _, ok := base.Experiment(ce.ID); !ok {
			r.Warnings = append(r.Warnings, fmt.Sprintf("experiment %s is new (no baseline)", ce.ID))
		}
		// The invariant audit is an absolute gate: any violation fails the
		// comparison regardless of what the baseline recorded.
		if n := ce.Counters["chaos.invariant_violations"]; n != 0 {
			r.Regressions = append(r.Regressions,
				fmt.Sprintf("%s: chaos.invariant_violations = %d (must be 0)", ce.ID, n))
		}
	}

	// Simulator core speed: events/sec is wall-based, so wall threshold.
	if base.Totals.EventsPerSec > 0 && cur.Totals.EventsPerSec > 0 {
		if d := pctChange(base.Totals.EventsPerSec, cur.Totals.EventsPerSec); d < -opts.WallThresholdPct {
			wallRegress(fmt.Sprintf("totals: events/sec %.2fM → %.2fM (%.0f%% < -%.0f%%)",
				base.Totals.EventsPerSec/1e6, cur.Totals.EventsPerSec/1e6, d, opts.WallThresholdPct))
		} else if d > opts.WallThresholdPct {
			r.Improvements = append(r.Improvements,
				fmt.Sprintf("totals: events/sec %.2fM → %.2fM (+%.0f%%)",
					base.Totals.EventsPerSec/1e6, cur.Totals.EventsPerSec/1e6, d))
		}
	}
	// Event count is deterministic at fixed suite content: big drift is
	// worth flagging but not failing (new experiments legitimately add
	// events).
	if base.Totals.SimEvents > 0 && cur.Totals.SimEvents > 0 {
		if d := pctChange(float64(base.Totals.SimEvents), float64(cur.Totals.SimEvents)); math.Abs(d) > 5 {
			r.Warnings = append(r.Warnings,
				fmt.Sprintf("totals: sim events %d → %d (%+.0f%%)", base.Totals.SimEvents, cur.Totals.SimEvents, d))
		}
	}
	// Micro-benchmarks, matched by name; ns/op gets the wall threshold. A
	// wholly absent section means the benchmarks weren't run this time
	// (suite-only BENCH vs a full baseline) — warn, don't fail; only an
	// individually vanished benchmark is a regression signal.
	if len(cur.GoBench) == 0 && len(base.GoBench) > 0 {
		r.Warnings = append(r.Warnings,
			fmt.Sprintf("go-bench section absent from new file (%d benchmarks in baseline; not run?)", len(base.GoBench)))
		return r
	}
	curBench := map[string]GoBenchResult{}
	for _, g := range cur.GoBench {
		curBench[g.Name] = g
	}
	for _, bg := range base.GoBench {
		cg, ok := curBench[bg.Name]
		if !ok {
			r.Missing = append(r.Missing, fmt.Sprintf("go-bench %s disappeared", bg.Name))
			continue
		}
		bNs, bOK := bg.Metrics["ns/op"]
		cNs, cOK := cg.Metrics["ns/op"]
		if bOK && cOK {
			if d := pctChange(bNs, cNs); d > opts.WallThresholdPct {
				wallRegress(fmt.Sprintf("go-bench %s: %.0f → %.0f ns/op (+%.0f%% > %.0f%%)",
					bg.Name, bNs, cNs, d, opts.WallThresholdPct))
			} else if d < -opts.WallThresholdPct {
				r.Improvements = append(r.Improvements,
					fmt.Sprintf("go-bench %s: %.0f → %.0f ns/op (%.0f%%)", bg.Name, bNs, cNs, d))
			}
		}
		for _, unit := range []string{"allocs/op", "B/op"} {
			bv, bOK := bg.Metrics[unit]
			cv, cOK := cg.Metrics[unit]
			if bOK && cOK {
				allocGate("go-bench "+bg.Name, unit, bv, cv)
			}
		}
	}
	baseBench := map[string]bool{}
	for _, g := range base.GoBench {
		baseBench[g.Name] = true
	}
	for _, g := range cur.GoBench {
		if !baseBench[g.Name] {
			r.Warnings = append(r.Warnings,
				fmt.Sprintf("go-bench %s is new (no baseline — ungated until the baseline is re-recorded)", g.Name))
		}
	}
	return r
}
