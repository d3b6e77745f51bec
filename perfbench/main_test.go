package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"repro/internal/units"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true},  // rank 90, ten beyond
		{99, 90, false},  // rank 90, nine beyond
		{1000, 99, true}, // rank 990, ten beyond
		{1000, 99.9, false},
		{20, 50, true},
		{19, 50, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestEnvelopeIsPerStepMinimum(t *testing.T) {
	ms := func(xs ...float64) []time.Duration {
		var ds []time.Duration
		for _, x := range xs {
			ds = append(ds, time.Duration(x*float64(time.Millisecond)))
		}
		return ds
	}
	reps := []rep{{steps: ms(3, 1, 9)}, {steps: ms(2, 5, 4)}, {steps: ms(4, 2, 6)}}
	got := envelope(reps)
	want := []float64{2, 1, 4}
	if len(got) != len(want) {
		t.Fatalf("envelope = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("envelope = %v, want %v", got, want)
			break
		}
	}
}

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(field int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(field, q.b)
}

// syntheticProfile encodes a CPU profile whose samples are stacks of
// function names, innermost first, each location holding one frame.
func syntheticProfile(t *testing.T, samples []struct {
	stack []string
	ns    uint64
}) []byte {
	t.Helper()
	var prof pb
	strs := []string{""}
	fnID := map[string]uint64{}
	var fns, locs pb
	for _, s := range samples {
		for _, fn := range s.stack {
			if fnID[fn] != 0 {
				continue
			}
			id := uint64(len(fnID) + 1)
			fnID[fn] = id
			strs = append(strs, fn)
			var f pb
			f.varint(1, id)
			f.varint(2, uint64(len(strs)-1))
			fns.bytes(5, f.b)
			var line, loc pb
			line.varint(1, id)
			loc.varint(1, id) // location id = function id
			loc.bytes(4, line.b)
			locs.bytes(4, loc.b)
		}
	}
	prof.bytes(1, nil) // sample_type samples/count
	prof.bytes(1, nil) // sample_type cpu/nanoseconds
	for i, s := range samples {
		var smp pb
		ids := make([]uint64, len(s.stack))
		for j, fn := range s.stack {
			ids[j] = fnID[fn]
		}
		if i%2 == 0 {
			smp.packed(1, ids...)
		} else {
			for _, id := range ids { // the unpacked encoding is legal too
				smp.varint(1, id)
			}
		}
		smp.packed(2, 1, s.ns)
		prof.bytes(2, smp.b)
	}
	prof.b = append(prof.b, locs.b...)
	prof.b = append(prof.b, fns.b...)
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestInnermostFrameAttribution(t *testing.T) {
	samples := []struct {
		stack []string
		ns    uint64
	}{
		// Map hashing called from the IOMMU counts against the IOMMU,
		// not against the PCIe router further out.
		{[]string{"runtime.mapaccess2_faststr", "repro/internal/iommu.(*IOMMU).TranslateDMA", "repro/internal/pcie.(*Fabric).RouteDMA", "main.main"}, 30},
		{[]string{"repro/internal/pcie.(*Fabric).RouteDMA", "main.main"}, 10},
		{[]string{"runtime.gcBgMarkWorker"}, 20},
		{[]string{"time.Now", "main.(*countingTranslator).TranslateDMA", "repro/internal/pcie.(*Fabric).RouteDMA"}, 5},
		{[]string{"runtime.mallocgc", "repro/internal/core.(*Testbed).StartUDP", "repro/internal/sim.(*Engine).RunUntil.func1", "main.main"}, 15},
		{[]string{"repro/internal/sim.(*Engine).RunUntil.func1", "main.main"}, 10},
		// A collection the pacer runs counts against gc, not the benchmark.
		{[]string{"runtime.gcSweep", "runtime.GC", "main.(*gcPacer).collect", "main.(*gcPacer).step", "main.main"}, 10},
	}
	got, incl := tally{}, tally{}
	if err := cpuSamples(syntheticProfile(t, samples), got, incl); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"iommu": 0.30, "pcie": 0.10, "gc": 0.30, "bench": 0.05, "other": 0.15, "sim": 0.10}
	var sum float64
	for _, b := range buckets {
		sum += got.share(b)
		if math.Abs(got.share(b)-want[b]) > 1e-12 {
			t.Errorf("%s share = %g, want %g", b, got.share(b), want[b])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %g", sum)
	}
	// Inclusive: every sample with a frame of the layer anywhere.
	wantIncl := tally{"pcie": 45, "iommu": 30, "sim": 25}
	if len(incl) != len(wantIncl) {
		t.Errorf("inclusive tally %v, want %v", incl, wantIncl)
	}
	for l, w := range wantIncl {
		if incl[l] != w {
			t.Errorf("%s inclusive = %g ns, want %g", l, incl[l], w)
		}
	}
}

func TestTruncatedProfileRejected(t *testing.T) {
	var p pb
	p.bytes(6, []byte("repro/internal/sim.x"))
	for cut := 1; cut < len(p.b); cut++ {
		if _, err := decodeProfile(p.b[:cut]); err == nil {
			t.Errorf("profile cut at %d of %d bytes decoded without error", cut, len(p.b))
		}
	}
}

// TestDigestStability runs one repetition of every workload at the
// development seed, and of fleet-rebalance (the workload the seed changes)
// at the held-out seed, and checks each digest against the recorded
// reference; and that a second build of one seed in the same process
// repeats the first's digest.
func TestDigestStability(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	refs, err := references()
	if err != nil {
		t.Fatal(err)
	}
	vf, _ := findSpec("vf-scale")
	pv, _ := findSpec("pv-scale")
	fleet, _ := findSpec("fleet-rebalance")
	digests := map[uint64]string{}
	for _, c := range []struct {
		sp   spec
		seed uint64
	}{{vf, 1}, {pv, 1}, {fleet, 1}, {fleet, 4242}} {
		b := &bencher{spec: c.sp, seed: c.seed, ref: refs[c.sp.name][fmt.Sprint(c.seed)], log: io.Discard}
		if b.ref == "" {
			t.Errorf("%s: no reference digest recorded for seed %d", c.sp.name, c.seed)
		}
		r, err := b.repeat(nil)
		if err != nil {
			t.Fatal(err)
		}
		if b.failed != 0 {
			t.Errorf("%s seed %d: %d of %d checks failed (digest %s, reference %s)", c.sp.name, c.seed, b.failed, b.attempted, r.out.digest, b.ref)
		}
		if c.sp.name == fleet.name {
			digests[c.seed] = r.out.digest
		}
	}
	if digests[1] == digests[4242] {
		t.Errorf("fleet-rebalance seeds 1 and 4242 gave the same digest %s", digests[1])
	}
	// pv-scale is the cheapest: shorten it and repeat within one process.
	short := spec{name: "pv-scale", step: 10 * units.Millisecond, horizon: 400 * units.Millisecond, build: buildPVScale}
	b := &bencher{spec: short, seed: 7, log: io.Discard}
	for i := 0; i < 2; i++ {
		if _, err := b.repeat(nil); err != nil {
			t.Fatal(err)
		}
	}
	if b.failed != 0 {
		t.Errorf("seed 7 twice: %d of %d checks failed", b.failed, b.attempted)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "pv-scale", "--trace", "2"},
		{"--workload", "pv-scale", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and no result", args, code, out.String())
		}
	}
}
