package main

import (
	"runtime"
	"runtime/metrics"
)

// minHeapGoal is the runtime's smallest heap goal (4 MiB).
const minHeapGoal = 4 << 20

// gcPacer runs the collector at step boundaries by the runtime's default
// rule (GOGC=100: collect once the heap has allocated as much as was live
// after the last collection, but at least 4 MiB). The runtime's own
// collector is off (see run), so every repetition of a seed collects at
// the same steps, each collection's time lands in the step it follows,
// and the per-step minimum across repetitions still carries all GC work.
type gcPacer struct {
	samples    []metrics.Sample // allocated bytes, live bytes
	sinceAlloc uint64           // allocated bytes at the last collection
	goal       uint64           // bytes to allocate before the next one
}

func newGCPacer() *gcPacer {
	p := &gcPacer{samples: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}}}
	p.collect()
	return p
}

// collect runs a full collection and sets the next goal.
func (p *gcPacer) collect() {
	runtime.GC()
	metrics.Read(p.samples)
	p.sinceAlloc = p.allocated()
	p.goal = p.live()
	if p.goal < minHeapGoal {
		p.goal = minHeapGoal
	}
}

// step collects if the goal has been reached.
func (p *gcPacer) step() {
	metrics.Read(p.samples)
	if p.allocated()-p.sinceAlloc >= p.goal {
		p.collect()
	}
}

// allocated is the cumulative bytes allocated, as of the last read.
func (p *gcPacer) allocated() uint64 { return p.samples[0].Value.Uint64() }

// live is the heap live after the last collection, as of the last read.
func (p *gcPacer) live() uint64 { return p.samples[1].Value.Uint64() }
