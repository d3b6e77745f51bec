// Package bench is the measurement side of the experiment pipeline: it
// turns a runner.Summary into a canonical machine-readable BENCH.json
// (per-experiment wall clock, headline figure metrics and counters, plus
// process totals — simulated events/sec, allocations), parses
// `go test -bench` output for merging micro-benchmarks into the same file,
// and diffs two BENCH files so CI can fail on a perf regression against a
// committed baseline.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/report"
	"repro/internal/runner"
)

// Schema is the BENCH.json format version.
const Schema = 2

// Experiment is one experiment's benchmark record.
type Experiment struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// WallNS is the serial-equivalent cost: the summed wall time of the
	// experiment's tasks, in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// Tasks is how many shards the experiment decomposed into.
	Tasks int `json:"tasks"`
	// ChecksPass records whether every shape check held.
	ChecksPass bool `json:"checks_pass"`
	// Metrics are the headline figure metrics: each series' final value
	// (what bench_test.go reports per figure).
	Metrics []report.Metric `json:"metrics"`
	// Allocs / AllocBytes are the heap allocations the experiment's tasks
	// performed. They are only recorded on serial runs (-parallel 1), where
	// per-task attribution is exact, and omitted otherwise; the comparator
	// gates them when both files carry them.
	Allocs     uint64 `json:"allocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	// Counters snapshots the experiment's metrics registry: every counter
	// any layer registered during its tasks. They are deterministic per
	// seed, so the comparator gates each one like a headline metric.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Totals aggregates the whole run.
type Totals struct {
	// WallNS is the harness wall clock for the whole run.
	WallNS int64 `json:"wall_ns"`
	Tasks  int   `json:"tasks"`
	// TaskWallMeanSec / TaskWallMaxSec describe the task wall-time
	// distribution (the max bounds the parallel critical path).
	TaskWallMeanSec float64 `json:"task_wall_mean_sec"`
	TaskWallMaxSec  float64 `json:"task_wall_max_sec"`
	// SimEvents is the number of simulation events executed; EventsPerSec
	// divides it by the harness wall clock — the simulator's core speed.
	SimEvents    uint64  `json:"sim_events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// AllocBytes / Mallocs are the run's heap allocation deltas
	// (runtime.MemStats TotalAlloc / Mallocs).
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
}

// File is the canonical BENCH.json document.
type File struct {
	Schema      int             `json:"schema"`
	GoVersion   string          `json:"go_version"`
	GOOS        string          `json:"goos"`
	GOARCH      string          `json:"goarch"`
	GOMAXPROCS  int             `json:"gomaxprocs"`
	Parallel    int             `json:"parallel"`
	Experiments []Experiment    `json:"experiments"`
	GoBench     []GoBenchResult `json:"go_bench,omitempty"`
	Totals      Totals          `json:"totals"`
}

// Collect builds a File from a run. The allocation totals, which the runner
// cannot see, are the caller's deltas around the run; pass zero to omit
// them.
func Collect(sum *runner.Summary, allocBytes, mallocs uint64) *File {
	f := &File{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Parallel:   sum.Parallel,
	}
	for _, r := range sum.Results {
		e := Experiment{ID: r.ID, Title: r.Title, WallNS: r.Wall.Nanoseconds(), Tasks: r.Tasks,
			Allocs: r.Allocs, AllocBytes: r.AllocBytes, Counters: r.Obs.Counters()}
		if r.Figure != nil {
			e.ChecksPass = r.Figure.AllChecksPass()
			e.Metrics = r.Figure.Headline()
		}
		f.Experiments = append(f.Experiments, e)
	}
	sort.Slice(f.Experiments, func(i, j int) bool { return f.Experiments[i].ID < f.Experiments[j].ID })

	secs := sum.Wall.Seconds()
	f.Totals = Totals{
		WallNS:          sum.Wall.Nanoseconds(),
		Tasks:           sum.Tasks,
		TaskWallMeanSec: sum.TaskWall.Mean(),
		TaskWallMaxSec:  sum.TaskWall.Max(),
		SimEvents:       sum.Events,
		AllocBytes:      allocBytes,
		Mallocs:         mallocs,
	}
	if secs > 0 {
		f.Totals.EventsPerSec = float64(sum.Events) / secs
	}
	return f
}

// Experiment looks an experiment record up by id.
func (f *File) Experiment(id string) (Experiment, bool) {
	for _, e := range f.Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Write renders the file as indented JSON at path.
func Write(path string, f *File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Read loads a BENCH.json.
func Read(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("bench: %s: schema %d, want %d", path, f.Schema, Schema)
	}
	return &f, nil
}

// Summary renders a short human-readable digest (for CI logs).
func (f *File) Summary() string {
	wall := time.Duration(f.Totals.WallNS)
	return fmt.Sprintf("%d experiments, %d tasks in %v (parallel=%d): %.2fM events/s, %.1f MB allocated",
		len(f.Experiments), f.Totals.Tasks, wall.Round(time.Millisecond), f.Parallel,
		f.Totals.EventsPerSec/1e6, float64(f.Totals.AllocBytes)/1e6)
}
