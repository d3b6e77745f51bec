package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pcie"
	"repro/internal/units"
)

// counts are the per-layer counts read from public accessors after each
// repetition, with their units.
var counts = []struct{ key, unit string }{
	{"sim.events", "count"}, {"iommu.dma", "count"}, {"iommu.walks_per_dma", "ratio"},
	{"base.delivered_kpkt", "kpkt"}, {"nic.intr_per_kpkt", "1/kpkt"}, {"vmm.exits_per_kpkt", "1/kpkt"},
	{"drivers.delivered_ratio", "ratio"}, {"cpu.dom0_pct", "%"}, {"cpu.total_pct", "%"},
	{"cluster.fabric_drops", "count"}, {"ctlplane.reconciles", "count"}, {"migration.downtime_p99_ms", "ms"},
}

// spans records host-time spans around the benchmark's calls into each
// layer. A nil *spans records nothing.
type spans struct {
	start time.Time
	buf   *obs.SpanBuffer
}

func newSpans(start time.Time) *spans {
	return &spans{start: start, buf: obs.NewSpanBuffer(1 << 16)}
}

// do runs fn, recording it as a span named name on the layer's track.
func (s *spans) do(layer, name string, fn func()) {
	if s == nil {
		fn()
		return
	}
	t := time.Now()
	fn()
	s.buf.Add(layer, name, units.Time(t.Sub(s.start)), units.Duration(time.Since(t)))
}

// probe carries the traced repetitions' instruments: spans, the timed
// translators, and the profiles bracketing the stepping.
type probe struct {
	spans     *spans
	xlate     []*countingTranslator
	calls     int64         // translations over all traced repetitions
	timed     int64         // of which timed
	elapsed   time.Duration // host time of the timed ones
	prof      bytes.Buffer
	profiling bool
	before    allocSnapshot
	after     allocSnapshot
	pendingNs []float64
}

// install wraps every testbed's IOMMU in a countingTranslator.
func (p *probe) install(beds []*core.Testbed) {
	p.xlate = p.xlate[:0]
	for _, tb := range beds {
		ct := &countingTranslator{next: tb.IOMMU}
		tb.Fabric.SetIOMMU(ct)
		p.xlate = append(p.xlate, ct)
	}
}

// startProfiles snapshots the allocation profile and starts the CPU
// profiler; the caller has just run a GC.
func (p *probe) startProfiles() error {
	p.before = takeAllocSnapshot()
	p.prof.Reset()
	if err := pprof.StartCPUProfile(&p.prof); err != nil {
		return err
	}
	p.profiling = true
	return nil
}

// stopProfiles stops the CPU profiler and, after a GC publishes the
// allocation profile, snapshots it again.
func (p *probe) stopProfiles() {
	if p.profiling {
		pprof.StopCPUProfile()
		p.profiling = false
	}
	for _, ct := range p.xlate {
		p.calls += ct.calls
		p.timed += ct.timed
		p.elapsed += ct.elapsed
	}
	runtime.GC()
	p.after = takeAllocSnapshot()
}

// xlateEvery is the sampling stride of the timed IOMMU translations.
const xlateEvery = 16

// countingTranslator counts every DMA translation and times every
// xlateEvery-th one; installed with Fabric.SetIOMMU in traced runs.
type countingTranslator struct {
	next    pcie.Translator
	calls   int64
	timed   int64
	elapsed time.Duration
}

func (c *countingTranslator) TranslateDMA(rid uint16, addr uint64, write bool) (uint64, error) {
	c.calls++
	if c.calls%xlateEvery != 0 {
		return c.next.TranslateDMA(rid, addr, write)
	}
	t := time.Now()
	hpa, err := c.next.TranslateDMA(rid, addr, write)
	c.elapsed += time.Since(t)
	c.timed++
	return hpa, err
}

// clockCost is the median host cost, in ns, of one time.Now/time.Since
// pair around nothing — what every timed translation overstates by.
func clockCost() float64 {
	var rounds []float64
	for r := 0; r < 9; r++ {
		const n = 20000
		var total time.Duration
		for i := 0; i < n; i++ {
			t := time.Now()
			total += time.Since(t)
		}
		rounds = append(rounds, float64(total.Nanoseconds())/n)
	}
	return median(rounds)
}

// pendingSink keeps the replayed Pending calls observable.
var pendingSink int

// replayPending times LAPIC.Pending on every guest's virtual LAPIC in its
// end-of-run state and reports the mean ns per call.
func replayPending(beds []*core.Testbed) float64 {
	const n = 20000
	var total time.Duration
	var calls int
	for _, tb := range beds {
		for _, g := range tb.Guests() {
			l := g.Dom.LAPIC()
			if l == nil {
				continue
			}
			t := time.Now()
			for i := 0; i < n; i++ {
				v, ok := l.Pending()
				if ok {
					pendingSink += int(v)
				}
			}
			total += time.Since(t)
			calls += n
		}
	}
	if calls == 0 {
		return 0
	}
	return float64(total.Nanoseconds()) / float64(calls)
}
