// Package runner executes registered experiments on a worker pool.
//
// The unit of scheduling is a task: one point of an experiment
// (experiments.Spec.Points), such as a single VM count of a scalability
// sweep, one coalescing policy of a sweep, or the single point of an
// experiment that does not decompose. Tasks are sharded across N
// goroutines; every task builds its own testbeds, so every simulation
// engine lives on exactly one goroutine, and every engine is seeded from a
// stable per-point seed (experiments.PointSeed) that depends only on what
// the task is. Figures are assembled from point results in registration
// order after all of an experiment's tasks finish. The result is
// bit-identical output at any parallelism: -parallel 1 and -parallel 8
// render the same bytes.
//
// Each worker's sim.Arena is the run's only mutable context below the
// runner: it carries the scheduler kind into every engine a task builds
// and tallies the events those engines execute. Two runs in one process
// share nothing.
package runner

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Options configures a run.
type Options struct {
	// Parallel is the worker count; <= 0 means GOMAXPROCS.
	Parallel int
	// Progress, if non-nil, receives one line per started task ("fig15
	// [30]") and is called from worker goroutines under a lock.
	Progress func(line string)
	// Scheduler selects the event-queue backend every task's engines use;
	// the zero value is the wheel. The choice must be invisible in the
	// output: figures are byte-identical under wheel and heap at any
	// parallelism.
	Scheduler sim.SchedulerKind
}

// Result is one experiment's outcome.
type Result struct {
	ID     string
	Title  string
	Figure *report.Figure
	// Wall is the serial-equivalent cost: the summed wall time of the
	// experiment's tasks (not first-start-to-last-end, which depends on
	// what else shared the pool).
	Wall time.Duration
	// Tasks is how many tasks (points) the experiment ran as.
	Tasks int
	// Allocs and AllocBytes are the heap allocations the experiment's tasks
	// performed (runtime.MemStats deltas summed over tasks). They are only
	// recorded on serial runs (Parallel == 1), where per-task attribution
	// is exact — Go has no per-goroutine allocation counters — and stay
	// zero otherwise.
	Allocs     uint64
	AllocBytes uint64
	// Obs is the experiment's metrics registry: its tasks' private
	// registries merged in task order.
	Obs *obs.Registry
	// Err is set if any task or the assembly panicked; Figure is then nil.
	Err error
}

// Summary aggregates one run of a set of experiments.
type Summary struct {
	Results []Result
	// Parallel is the worker count actually used.
	Parallel int
	// Wall is the harness wall-clock for the whole run.
	Wall time.Duration
	// Tasks is the total task count.
	Tasks int
	// TaskWall is the distribution of per-task wall times, in seconds.
	TaskWall stats.Welford
	// Events is the number of simulation events the run's engines executed:
	// the sum of the worker arenas' tallies.
	Events uint64
	// Obs is the run's merged metrics registry: the results' registries
	// merged in input order, so the merged contents are byte-identical at
	// any parallelism.
	Obs *obs.Registry
}

// Failed lists the results that errored or whose shape checks failed.
func (s *Summary) Failed() []Result {
	var out []Result
	for _, r := range s.Results {
		if r.Err != nil || (r.Figure != nil && !r.Figure.AllChecksPass()) {
			out = append(out, r)
		}
	}
	return out
}

// task is one unit of scheduling.
type task struct {
	idx   int // index into the task list (and taskRegs)
	spec  int // index into specs
	point int // index into the spec's Points
}

// Run executes the given experiments on a pool of opts.Parallel workers and
// returns one Result per spec, in input order.
func Run(specs []experiments.Spec, opts Options) *Summary {
	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	sum := &Summary{Results: make([]Result, len(specs)), Parallel: workers}
	pointRes := make([][]any, len(specs))
	var tasks []task
	for i, s := range specs {
		sum.Results[i] = Result{ID: s.ID, Title: s.Title, Obs: obs.NewRegistry()}
		pointRes[i] = make([]any, len(s.Points))
		for j := range s.Points {
			tasks = append(tasks, task{idx: len(tasks), spec: i, point: j})
		}
	}
	sum.Tasks = len(tasks)
	taskRegs := make([]*obs.Registry, len(tasks))

	start := time.Now()

	// mu guards the per-experiment accumulators (Wall, Tasks, Err), the
	// task-wall distribution, and Progress. Point results need no lock:
	// each slot has exactly one writer, and the WaitGroup orders the reads.
	var mu sync.Mutex
	ch := make(chan task)
	var wg sync.WaitGroup
	trackAllocs := workers == 1
	arenas := make([]*sim.Arena, workers)
	for w := range arenas {
		// One arena per worker goroutine, never shared across goroutines:
		// consecutive points on this worker reuse each other's event
		// storage, and every engine a task builds on it takes the run's
		// scheduler kind and adds to its event tally.
		arena := sim.NewArena()
		arena.SetScheduler(opts.Scheduler)
		arenas[w] = arena
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				runTask(specs, t, pointRes, taskRegs, sum, &mu, opts.Progress, arena, trackAllocs)
			}
		}()
	}
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	wg.Wait()

	// Merge the per-task registries in task order into their experiment's,
	// then those in input order into the run's. Counters and histogram
	// buckets are sums, but gauge overwrites are order-sensitive; a spec's
	// tasks are contiguous, so both levels see one fixed order and metrics
	// output stays deterministic.
	for _, t := range tasks {
		sum.Results[t.spec].Obs.Merge(taskRegs[t.idx])
	}
	sum.Obs = obs.NewRegistry()
	for _, r := range sum.Results {
		sum.Obs.Merge(r.Obs)
	}

	// Assemble the figures in input order, on this goroutine.
	for i, s := range specs {
		r := &sum.Results[i]
		if r.Err != nil {
			continue
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					r.Err = fmt.Errorf("%s: assembly panicked: %v", s.ID, p)
					r.Figure = nil
				}
			}()
			r.Figure = s.Build(pointRes[i])
		}()
	}

	sum.Wall = time.Since(start)
	for _, a := range arenas {
		sum.Events += a.Processed()
	}
	return sum
}

// RunAll runs every registered experiment.
func RunAll(opts Options) *Summary { return Run(experiments.All(), opts) }

// RunIDs runs the named experiments (sorted, deduplicated). Unknown ids
// return an error.
func RunIDs(ids []string, opts Options) (*Summary, error) {
	seen := map[string]bool{}
	var specs []experiments.Spec
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		s, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("runner: unknown experiment %q", id)
		}
		specs = append(specs, s)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].ID < specs[j].ID })
	return Run(specs, opts), nil
}

// runTask executes one task with panic isolation: a panicking point marks
// its experiment failed but never takes down the pool or the other
// experiments.
func runTask(specs []experiments.Spec, t task, pointRes [][]any, taskRegs []*obs.Registry, sum *Summary, mu *sync.Mutex, progress func(string), arena *sim.Arena, trackAllocs bool) {
	s := specs[t.spec]
	p := s.Points[t.point]
	label := fmt.Sprintf("%s [%s]", s.ID, p.Label)
	if progress != nil {
		mu.Lock()
		progress(label)
		mu.Unlock()
	}
	var m0 runtime.MemStats
	if trackAllocs {
		runtime.ReadMemStats(&m0)
	}
	start := time.Now()
	defer func() {
		wall := time.Since(start)
		p := recover()
		var allocs, allocBytes uint64
		if trackAllocs {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			allocs, allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		}
		mu.Lock()
		r := &sum.Results[t.spec]
		r.Wall += wall
		r.Tasks++
		r.Allocs += allocs
		r.AllocBytes += allocBytes
		sum.TaskWall.Observe(wall.Seconds())
		if p != nil && r.Err == nil {
			r.Err = fmt.Errorf("%s: panic: %v", label, p)
		}
		mu.Unlock()
	}()
	// The point gets a private registry (slot has one writer; the
	// WaitGroup orders the merge's reads).
	reg := obs.NewRegistry()
	taskRegs[t.idx] = reg
	pointRes[t.spec][t.point] = p.Run(experiments.PointSeed(s.ID, p.Label), reg, arena)
}
