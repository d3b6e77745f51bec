package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
)

// goodBench writes a minimal valid BENCH.json and returns its path.
func goodBench(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "good.json")
	doc := `{"schema": 2, "parallel": 1, "experiments": [], "totals": {"wall_ns": 1}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runDiff(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestCorruptInputExitsTwoWithMessage pins the CI contract for damaged
// BENCH.json files: exit 2 (not 1 — a broken artifact is not a perf
// regression) and a message naming the offending file and what is wrong,
// with no panic, whichever side of the diff is corrupt.
func TestCorruptInputExitsTwoWithMessage(t *testing.T) {
	good := goodBench(t)
	cases := []struct {
		name    string
		fixture string
		want    []string
	}{
		{"truncated", "testdata/truncated.json", []string{"truncated.json", "unexpected end of JSON input"}},
		{"garbage", "testdata/garbage.json", []string{"garbage.json", "invalid character"}},
		{"bad-schema", "testdata/badschema.json", []string{"badschema.json", "schema 99, want 2"}},
		{"missing", "testdata/does-not-exist.json", []string{"does-not-exist.json"}},
	}
	for _, tc := range cases {
		for _, side := range []string{"baseline", "candidate"} {
			t.Run(tc.name+"/"+side, func(t *testing.T) {
				args := []string{tc.fixture, good}
				if side == "candidate" {
					args = []string{good, tc.fixture}
				}
				code, _, stderr := runDiff(t, args...)
				if code != 2 {
					t.Fatalf("exit %d, want 2; stderr %q", code, stderr)
				}
				if !strings.Contains(stderr, side+":") {
					t.Errorf("stderr %q does not say which side (%s) is broken", stderr, side)
				}
				for _, frag := range tc.want {
					if !strings.Contains(stderr, frag) {
						t.Errorf("stderr %q missing %q", stderr, frag)
					}
				}
			})
		}
	}
}

func TestUsageExitsTwo(t *testing.T) {
	if code, _, stderr := runDiff(t, "only-one.json"); code != 2 || !strings.Contains(stderr, "usage:") {
		t.Fatalf("exit %d, stderr %q; want 2 + usage", code, stderr)
	}
}

// TestIdenticalFilesPass sanity-checks the happy path through run().
func TestIdenticalFilesPass(t *testing.T) {
	good := goodBench(t)
	code, stdout, stderr := runDiff(t, good, good)
	if code != 0 || !strings.Contains(stdout, "benchdiff: OK") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestCommittedBaselineDiffsClean keeps the repo's own BENCH files honest:
// the committed baseline must diff cleanly against the committed record
// through the same code path CI uses.
func TestCommittedBaselineDiffsClean(t *testing.T) {
	base, cur := "../../BENCH_baseline.json", "../../BENCH.json"
	if _, err := os.Stat(base); err != nil {
		t.Skip("no committed baseline")
	}
	code, stdout, stderr := runDiff(t, "-wall-warn-only", "-alloc-warn-only", base, cur)
	if code != 0 {
		t.Fatalf("committed BENCH files diff dirty: exit %d\n%s\n%s", code, stdout, stderr)
	}
}

// mutatedRecord copies the committed BENCH.json with one counter of one
// experiment changed by mutate, and returns the copy's path together with
// the experiment id and counter name it touched.
func mutatedRecord(t *testing.T, pick func(e bench.Experiment) (string, bool), mutate func(v int64) int64) (path, id, counter string) {
	t.Helper()
	f, err := bench.Read("../../BENCH.json")
	if err != nil {
		t.Skipf("no committed BENCH.json: %v", err)
	}
	for i, e := range f.Experiments {
		name, ok := pick(e)
		if !ok {
			continue
		}
		f.Experiments[i].Counters[name] = mutate(e.Counters[name])
		path = filepath.Join(t.TempDir(), "mutated.json")
		if err := bench.Write(path, f); err != nil {
			t.Fatal(err)
		}
		return path, e.ID, name
	}
	t.Fatal("no experiment in the committed BENCH.json has a counter to mutate")
	return "", "", ""
}

// TestCommittedRecordCounterDriftFails drifts one counter of one experiment
// by 1% and requires the gate to fail naming both.
func TestCommittedRecordCounterDriftFails(t *testing.T) {
	firstLarge := func(e bench.Experiment) (string, bool) {
		names := make([]string, 0, len(e.Counters))
		for name, v := range e.Counters {
			if v >= 100 {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		if len(names) == 0 {
			return "", false
		}
		return names[0], true
	}
	cur, id, counter := mutatedRecord(t, firstLarge, func(v int64) int64 { return v + v/100 })
	code, stdout, stderr := runDiff(t, "-wall-warn-only", "-alloc-warn-only", "../../BENCH.json", cur)
	if code != 1 {
		t.Fatalf("one-counter drift: exit %d, want 1\n%s\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, id+": counter "+counter+" drifted") {
		t.Fatalf("report does not name %s and %s:\n%s", id, counter, stdout)
	}
}

// TestCommittedRecordInvariantViolationFails sets one experiment's
// chaos.invariant_violations to 1 and requires the gate to fail naming it.
func TestCommittedRecordInvariantViolationFails(t *testing.T) {
	audited := func(e bench.Experiment) (string, bool) {
		_, ok := e.Counters["chaos.invariant_violations"]
		return "chaos.invariant_violations", ok
	}
	cur, id, _ := mutatedRecord(t, audited, func(int64) int64 { return 1 })
	code, stdout, stderr := runDiff(t, "-wall-warn-only", "-alloc-warn-only", "../../BENCH.json", cur)
	if code != 1 {
		t.Fatalf("invariant violation: exit %d, want 1\n%s\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, id+": chaos.invariant_violations = 1 (must be 0)") {
		t.Fatalf("report does not name %s:\n%s", id, stdout)
	}
}
