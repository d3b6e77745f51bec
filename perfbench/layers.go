package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
)

// layers are the simulator modules a packet crosses, in report order. A
// profile sample is charged to the innermost frame of one of these
// packages, so map hashing, mallocs and GC assists count against the layer
// that called them.
var layers = []string{"sim", "nic", "pcie", "iommu", "interrupts", "vmm", "cpu", "drivers", "cluster", "migration", "ctlplane"}

// Buckets beside the layers: other internal packages (core, workload,
// guest, obs, ...), the benchmark's own code, and the collector: samples
// with no repo frame at all (GC workers, the scheduler) and the
// collections the benchmark's pacer runs.
const (
	bucketOther = "other"
	bucketBench = "bench"
	bucketGC    = "gc"
)

// buckets is every attribution target; shares over them sum to 1.
var buckets = append(append([]string(nil), layers...), bucketOther, bucketBench, bucketGC)

const internalPrefix = "repro/internal/"

// pacerCollect is the benchmark frame that runs the collector. The
// runtime's own collector is off, so every collection, its sweep and its
// waits included, runs under this frame and is charged to gc.
const pacerCollect = "main.(*gcPacer).collect"

// classify maps one function name to its bucket, or "" for a frame
// outside the repository (runtime, standard library).
func classify(fn string) string {
	if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return bucketOther
	}
	if fn == pacerCollect {
		return bucketGC
	}
	if strings.HasPrefix(fn, "main.") {
		return bucketBench
	}
	return ""
}

// attribute charges a stack, listed innermost frame first, to the bucket
// of its innermost repository frame, or to gc when it has none.
func attribute(stack []string) string {
	for _, fn := range stack {
		if b := classify(fn); b != "" {
			return b
		}
	}
	return bucketGC
}

// tally accumulates weight per bucket.
type tally map[string]float64

func (t tally) total() float64 {
	var s float64
	for _, v := range t {
		s += v
	}
	return s
}

// share reports bucket b's fraction of the total (0 when empty).
func (t tally) share(b string) float64 {
	if tot := t.total(); tot > 0 {
		return t[b] / tot
	}
	return 0
}

// cpuSamples decodes a gzipped pprof CPU profile into per-bucket CPU
// nanoseconds. incl also gets, per layer, the nanoseconds of every sample
// with a frame of that layer anywhere on its stack: a layer whose work
// runs in the layers it calls (migration's dirtier draws from sim's RNG
// and writes guest memory) shows there, though its own share is small.
func cpuSamples(gz []byte, into, incl tally) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	vi := p.sampleTypes - 1 // Go CPU profiles: [samples/count, cpu/nanoseconds]
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			return errors.New("cpu profile: sample without its value")
		}
		var stack []string
		for _, id := range s.locations {
			for _, fid := range p.locations[id] {
				stack = append(stack, p.strings[p.functions[fid]])
			}
		}
		into[attribute(stack)] += float64(s.values[vi])
		seen := map[string]bool{}
		for _, fn := range stack {
			if b := classify(fn); b != "" && b != bucketOther && b != bucketBench && b != bucketGC && !seen[b] {
				seen[b] = true
				incl[b] += float64(s.values[vi])
			}
		}
	}
	return nil
}

// profile is the part of the pprof protobuf message attribution needs.
type profile struct {
	sampleTypes int
	samples     []profSample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]uint64   // function id → name string index
	strings     []string
}

type profSample struct {
	locations []uint64 // innermost first
	values    []int64
}

// decodeProfile parses the uncompressed perftools.profiles.Profile fields
// that carry samples, locations, functions and the string table.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]uint64{}}
	err := fields(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 1: // sample_type
			p.sampleTypes++
		case 2: // sample
			var s profSample
			err := fields(sub, func(n int, v uint64, sub []byte) error {
				var err error
				switch n {
				case 1:
					s.locations, err = appendVarints(s.locations, v, sub)
				case 2:
					var vs []uint64
					vs, err = appendVarints(nil, v, sub)
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(sub, func(n int, v uint64, sub []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(sub, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(sub, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, fids := range p.locations {
		for _, f := range fids {
			if int(p.functions[f]) >= len(p.strings) {
				return nil, errors.New("function name outside the string table")
			}
		}
	}
	for _, s := range p.samples {
		for _, id := range s.locations {
			if _, ok := p.locations[id]; !ok {
				return nil, fmt.Errorf("sample names unknown location %d", id)
			}
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value (wire type 0) or its bytes (wire type 2).
// Fixed-width fields are skipped.
func fields(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wt == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that arrived either as
// one value (sub nil) or packed (sub holds the varints).
func appendVarints(dst []uint64, v uint64, sub []byte) ([]uint64, error) {
	if sub == nil {
		return append(dst, v), nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return nil, errTruncated
		}
		dst = append(dst, x)
		sub = sub[n:]
	}
	return dst, nil
}

// allocSnapshot is the runtime's cumulative allocation profile, bytes per
// call stack, as of the most recent completed GC.
type allocSnapshot map[[32]uintptr]int64

func takeAllocSnapshot() allocSnapshot {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	s := make(allocSnapshot, len(recs))
	for _, r := range recs {
		s[r.Stack0] += r.AllocBytes
	}
	return s
}

// allocSince charges the bytes allocated between before and after to the
// bucket of each allocating stack.
func allocSince(before, after allocSnapshot, into tally) {
	for stk, b := range after {
		d := b - before[stk]
		if d <= 0 {
			continue
		}
		pcs := stk[:]
		for i, pc := range pcs {
			if pc == 0 {
				pcs = pcs[:i]
				break
			}
		}
		var names []string
		frames := runtime.CallersFrames(pcs)
		for {
			f, more := frames.Next()
			names = append(names, f.Function)
			if !more {
				break
			}
		}
		into[attribute(names)] += float64(d)
	}
}
