// Command benchdiff is the perf-regression gate: it diffs two BENCH.json
// files (as emitted by `sriovsim -bench-out`) and exits non-zero when the new
// one regresses beyond the thresholds.
//
// Usage:
//
//	benchdiff [-threshold 25] [-metric-threshold 0.1] [-alloc-threshold 10]
//	          [-warn-only] [-wall-warn-only] [-alloc-warn-only] base.json new.json
//
// Wall-clock figures (per-experiment wall, events/sec, go-bench ns/op) use
// -threshold (percent); deterministic headline metrics and every
// experiment's counters use -metric-threshold, tight by default because any
// drift in a seeded simulation means the model's behavior changed; a nonzero
// chaos.invariant_violations counter in any experiment always fails; allocation figures (per-experiment allocs/bytes from
// serial runs, go-bench allocs/op and B/op) use -alloc-threshold. -warn-only
// prints the report but always exits zero (for non-blocking CI introduction).
// -wall-warn-only demotes only the wall-clock regressions to warnings while
// deterministic metric drift still fails — the blocking mode for noisy shared
// CI runners. -alloc-warn-only does the same for allocation regressions.
//
// Exit status: 0 clean, 1 regression, 2 usage error or unreadable/malformed
// input (a truncated or corrupt BENCH.json names the file and the parse
// problem — it never panics, so CI sees a diagnosis instead of a stack trace).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main() behind a testable seam. The recover guard turns any panic —
// e.g. an unexpected shape that slips past the decoder — into the same exit
// 2 + message contract that malformed input gets.
func run(args []string, stdout, stderr io.Writer) (code int) {
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(stderr, "benchdiff: internal error: %v\n", p)
			code = 2
		}
	}()

	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0, "allowed wall-clock slowdown in percent (0 = default 25)")
	metricThreshold := fs.Float64("metric-threshold", 0, "allowed drift of headline metrics and counters in percent (0 = default 0.1)")
	allocThreshold := fs.Float64("alloc-threshold", 0, "allowed allocation growth in percent (0 = default 10)")
	warnOnly := fs.Bool("warn-only", false, "report regressions but exit zero")
	wallWarnOnly := fs.Bool("wall-warn-only", false, "demote wall-clock regressions to warnings; deterministic metrics still fail")
	allocWarnOnly := fs.Bool("alloc-warn-only", false, "demote allocation regressions to warnings")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [flags] base.json new.json")
		fs.PrintDefaults()
		return 2
	}
	base, err := bench.Read(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: baseline: %v\n", err)
		return 2
	}
	cur, err := bench.Read(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: candidate: %v\n", err)
		return 2
	}

	r := bench.Compare(base, cur, bench.CompareOptions{
		WallThresholdPct:   *threshold,
		MetricThresholdPct: *metricThreshold,
		AllocThresholdPct:  *allocThreshold,
		WallWarnOnly:       *wallWarnOnly,
		AllocWarnOnly:      *allocWarnOnly,
	})
	fmt.Fprintf(stdout, "base: %s\nnew:  %s\n\n%s", base.Summary(), cur.Summary(), r)
	if r.Failed() {
		if *warnOnly {
			fmt.Fprintln(stdout, "\nbenchdiff: regressions found (warn-only, not failing)")
			return 0
		}
		fmt.Fprintln(stdout, "\nbenchdiff: FAIL")
		return 1
	}
	fmt.Fprintln(stdout, "benchdiff: OK")
	return 0
}
