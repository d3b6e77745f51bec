package iommu

import (
	"testing"

	"repro/internal/mem"
)

// refEntry is one translation cached by refTLB.
type refEntry struct {
	rid      uint16
	gfn, mfn uint64
	writable bool
}

// refTLB is the reference model FuzzIOTLB checks the IOTLB against: a
// slice in recency order (most recent first), searched linearly.
type refTLB struct {
	capacity     int
	lru          []refEntry
	hits, misses int64
}

func (r *refTLB) lookup(rid uint16, gfn uint64) (refEntry, bool) {
	for i, e := range r.lru {
		if e.rid == rid && e.gfn == gfn {
			r.hits++
			copy(r.lru[1:i+1], r.lru[:i])
			r.lru[0] = e
			return e, true
		}
	}
	r.misses++
	return refEntry{}, false
}

func (r *refTLB) insert(e refEntry) {
	if len(r.lru) >= r.capacity {
		r.lru = r.lru[:len(r.lru)-1]
	}
	r.lru = append([]refEntry{e}, r.lru...)
}

func (r *refTLB) invalidateRID(rid uint16) {
	kept := r.lru[:0]
	for _, e := range r.lru {
		if e.rid != rid {
			kept = append(kept, e)
		}
	}
	r.lru = kept
}

// lruOrder lists the IOTLB's entries from most to least recently used.
func lruOrder(t *IOTLB) []refEntry {
	var out []refEntry
	for i := t.head; i != noEntry; i = t.entries[i].next {
		e := &t.entries[i]
		out = append(out, refEntry{rid: e.rid, gfn: e.gfn, mfn: e.mfn, writable: e.writable})
	}
	return out
}

// fuzzRIDs are the requesters FuzzIOTLB drives: the first two share domain
// 1's page table, and they span several buses of the context table.
var fuzzRIDs = [4]uint16{0x0100, 0x0101, 0x0200, 0xff07}

func fuzzDomain(i int) int { return [4]int{1, 1, 2, 3}[i] }

// FuzzIOTLB runs an arbitrary sequence of IOMMU operations — translate,
// fill (lookup, then insert on a miss), unmap, InvalidateRID, InvalidateAll,
// DetachRID and re-attach — three bytes each, against the IOMMU and a
// reference list-based LRU with a reference page table. Translations,
// faults, hits, misses, Len and the full recency order must match after
// every operation. Guest frames include bits above 48, so a (rid, gfn) key
// that would alias when packed into one uint64 is exercised.
func FuzzIOTLB(f *testing.F) {
	f.Add(uint8(1), []byte{0, 0, 1, 0, 0, 2, 0, 0, 1})
	f.Add(uint8(3), []byte{0, 0, 1, 0, 1, 1, 0, 8, 1, 0, 16, 1, 2, 0, 0, 0, 1, 1})
	f.Add(uint8(7), []byte{1, 2, 3, 1, 3, 4, 4, 2, 0, 0, 3, 4, 5, 0, 0, 6, 3, 0, 0, 3, 4})
	f.Add(uint8(39), []byte{0, 4, 9, 0, 5, 9, 3, 0, 9, 0, 4, 9, 6, 0, 0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, capByte uint8, ops []byte) {
		capacity := 1 + int(capByte%40)
		u := New(capacity)
		ref := &refTLB{capacity: capacity}
		// Reference page tables per domain, keyed by the low 27 bits of
		// the gfn (all the 3-level walk indexes); absent if unmapped.
		type leaf struct {
			mfn      uint64
			writable bool
		}
		pts := map[int]map[uint64]leaf{}
		attached := [4]bool{}
		for i, rid := range fuzzRIDs {
			u.AttachDomain(rid, fuzzDomain(i))
			attached[i] = true
			dom := fuzzDomain(i)
			if pts[dom] != nil {
				continue
			}
			pts[dom] = map[uint64]leaf{}
			for g := uint64(0); g < 64; g++ {
				if (g+uint64(dom))%5 == 0 {
					continue
				}
				l := leaf{mfn: uint64(dom)*1000 + g, writable: g%3 != 0}
				pts[dom][g] = l
				u.Map(rid, g, l.mfn, l.writable)
			}
		}
		const lowGFN = 1<<(ptLevels*ptLevelBits) - 1
		for n := 0; n+2 < len(ops); n += 3 {
			op, a, b := ops[n]%7, ops[n+1], ops[n+2]
			ri := int(a & 3)
			rid := fuzzRIDs[ri]
			write := a&4 != 0
			gfn := uint64(b & 63)
			if a&8 != 0 {
				gfn |= 1 << 48
			}
			if a&16 != 0 {
				gfn |= 1 << 51
			}
			switch op {
			case 0: // translate
				addr := gfn<<mem.PageShift | uint64(a>>5)
				hpa, err := u.TranslateDMA(rid, addr, write)
				wantOK := false
				var wantMFN uint64
				if attached[ri] {
					if e, hit := ref.lookup(rid, gfn); hit {
						wantOK, wantMFN = !write || e.writable, e.mfn
					} else if l, mapped := pts[fuzzDomain(ri)][gfn&lowGFN]; mapped {
						wantOK, wantMFN = !write || l.writable, l.mfn
						if wantOK {
							ref.insert(refEntry{rid: rid, gfn: gfn, mfn: l.mfn, writable: l.writable})
						}
					}
				}
				if (err == nil) != wantOK || (wantOK && hpa != wantMFN<<mem.PageShift|uint64(a>>5)) {
					t.Fatalf("op %d: TranslateDMA(%#x, %#x, %v) = %#x, %v; reference ok=%v mfn=%d",
						n/3, rid, addr, write, hpa, err, wantOK, wantMFN)
				}
			case 1: // fill
				mfn := uint64(b)<<8 | uint64(a)
				if _, hit := u.tlb.lookup(rid, gfn); !hit {
					u.tlb.insert(rid, gfn, mfn, write)
				}
				if _, hit := ref.lookup(rid, gfn); !hit {
					ref.insert(refEntry{rid: rid, gfn: gfn, mfn: mfn, writable: write})
				}
			case 2: // unmap
				err := u.Unmap(rid, gfn)
				if (err == nil) != attached[ri] {
					t.Fatalf("op %d: Unmap(%#x) = %v with attached=%v", n/3, rid, err, attached[ri])
				}
				if attached[ri] {
					delete(pts[fuzzDomain(ri)], gfn&lowGFN)
					ref.invalidateRID(rid)
				}
			case 3:
				u.tlb.InvalidateRID(rid)
				ref.invalidateRID(rid)
			case 4:
				u.tlb.InvalidateAll()
				ref.lru = ref.lru[:0]
			case 5:
				u.DetachRID(rid)
				attached[ri] = false
				ref.invalidateRID(rid)
			case 6:
				// A domain no attached RID holds starts a fresh, empty
				// page table, as AttachDomain builds one.
				shared := false
				for j := range fuzzRIDs {
					shared = shared || (attached[j] && fuzzDomain(j) == fuzzDomain(ri))
				}
				if !shared {
					pts[fuzzDomain(ri)] = map[uint64]leaf{}
				}
				u.AttachDomain(rid, fuzzDomain(ri))
				attached[ri] = true
			}
			tlb := u.TLB()
			if tlb.Hits != ref.hits || tlb.Misses != ref.misses || tlb.Len() != len(ref.lru) {
				t.Fatalf("op %d (%d): hits/misses/len = %d/%d/%d, reference %d/%d/%d", n/3, op,
					tlb.Hits, tlb.Misses, tlb.Len(), ref.hits, ref.misses, len(ref.lru))
			}
			got := lruOrder(tlb)
			for i := range got {
				if got[i] != ref.lru[i] {
					t.Fatalf("op %d (%d): recency order %v, reference %v", n/3, op, got, ref.lru)
				}
			}
		}
	})
}
