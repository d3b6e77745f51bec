// Package iommu models a VT-d style I/O memory management unit: a context
// table mapping PCIe requester IDs to per-domain page tables, a multi-level
// page-table walk that translates device-visible (guest-physical) addresses
// to machine addresses, and an IOTLB that caches translations.
//
// The IOMMU is what lets SR-IOV inherit Direct I/O's safety: the VF driver
// programs guest-physical DMA addresses, and the hardware — not the VMM —
// remaps and validates them per RID (§2).
package iommu

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/stats"
)

// levels and bits of the modeled page table (3-level, 9 bits per level,
// 4 KiB pages: 39-bit device address space, plenty for the testbed).
const (
	ptLevels    = 3
	ptLevelBits = 9
	ptFanout    = 1 << ptLevelBits
)

// Fault is a DMA remapping fault: the transaction was rejected.
type Fault struct {
	RID    uint16
	Addr   uint64
	Write  bool
	Reason string
}

func (f *Fault) Error() string {
	rw := "read"
	if f.Write {
		rw = "write"
	}
	return fmt.Sprintf("iommu: %s fault: rid %#04x addr %#x: %s", rw, f.RID, f.Addr, f.Reason)
}

// pageTable is a software model of the 3-level structure: a root and a
// middle level of directories (512 pointers each) above leaf tables of
// packed entries. Nodes are allocated lazily. A leaf table is 4 KiB, as
// the hardware's is, so a guest's tables cost about 1/512 of its memory.
type pageTable struct {
	root *ptRoot
}

type (
	ptRoot  [ptFanout]*ptDir
	ptDir   [ptFanout]*ptTable
	ptTable [ptFanout]pte
)

// pte is one packed leaf entry: mfn<<2 | writable<<1 | present.
type pte uint64

const (
	ptePresent  pte = 1
	pteWritable pte = 2
)

func makePTE(mfn uint64, writable bool) pte {
	e := pte(mfn<<2) | ptePresent
	if writable {
		e |= pteWritable
	}
	return e
}

func (e pte) present() bool  { return e&ptePresent != 0 }
func (e pte) writable() bool { return e&pteWritable != 0 }
func (e pte) mfn() uint64    { return uint64(e >> 2) }

// ptIndex is gfn's index into the table at the given level (2 = root).
func ptIndex(gfn uint64, lvl int) uint64 {
	return (gfn >> uint(lvl*ptLevelBits)) & (ptFanout - 1)
}

func (pt *pageTable) map4k(gfn, mfn uint64, writable bool) {
	if pt.root == nil {
		pt.root = &ptRoot{}
	}
	dir := &pt.root[ptIndex(gfn, 2)]
	if *dir == nil {
		*dir = &ptDir{}
	}
	tbl := &(*dir)[ptIndex(gfn, 1)]
	if *tbl == nil {
		*tbl = &ptTable{}
	}
	(*tbl)[ptIndex(gfn, 0)] = makePTE(mfn, writable)
}

// walk returns the leaf entry for gfn and the number of memory accesses the
// walk took (for cost accounting); the entry is zero (not present) when a
// level is missing.
func (pt *pageTable) walk(gfn uint64) (pte, int) {
	if pt.root == nil {
		return 0, 1
	}
	dir := pt.root[ptIndex(gfn, 2)]
	if dir == nil {
		return 0, 1
	}
	tbl := dir[ptIndex(gfn, 1)]
	if tbl == nil {
		return 0, 2
	}
	return tbl[ptIndex(gfn, 0)], ptLevels
}

func (pt *pageTable) unmap(gfn uint64) {
	if pt.root == nil {
		return
	}
	if dir := pt.root[ptIndex(gfn, 2)]; dir != nil {
		if tbl := dir[ptIndex(gfn, 1)]; tbl != nil {
			tbl[ptIndex(gfn, 0)] = 0
		}
	}
}

// iotlbEntry is one cached translation. Entries live in IOTLB.entries and
// link into the LRU list by index.
type iotlbEntry struct {
	gfn        uint64
	mfn        uint64
	rid        uint16
	writable   bool
	prev, next int32 // LRU neighbours (noEntry at the ends); next also links the free list
}

// noEntry is the nil entry index.
const noEntry int32 = -1

// IOTLB is a fully associative LRU translation cache with hit/miss
// counters. Entries sit in one array linked into an LRU list by index;
// an open-addressed table of entry indices, probed linearly and compared
// on the full (rid, gfn), finds them. A gfn has 52 bits, so no single
// uint64 key holds (rid, gfn) exactly. Once it has seen capacity entries
// the cache allocates nothing: a miss evicts the tail and reuses its slot.
type IOTLB struct {
	capacity int
	entries  []iotlbEntry
	// table holds entry index+1 per slot (0 = empty); its length is a
	// power of two at least twice the number of live entries.
	table      []int32
	shift      uint // 64 - log2(len(table))
	live       int
	head, tail int32 // most and least recently used
	free       int32 // recycled entries, linked through next
	Hits       int64
	Misses     int64
}

// NewIOTLB creates a cache holding up to capacity translations.
func NewIOTLB(capacity int) *IOTLB {
	if capacity <= 0 {
		panic("iommu: IOTLB capacity must be positive")
	}
	t := &IOTLB{capacity: capacity, head: noEntry, tail: noEntry, free: noEntry}
	t.grow()
	return t
}

// home is the table slot a key hashes to (Fibonacci hashing).
func (t *IOTLB) home(rid uint16, gfn uint64) int {
	return int(((gfn ^ uint64(rid)<<40) * 0x9e3779b97f4a7c15) >> t.shift)
}

// slotOf finds the table slot holding (rid, gfn), or the empty slot that
// ends its probe sequence.
func (t *IOTLB) slotOf(rid uint16, gfn uint64) (slot int, found bool) {
	mask := len(t.table) - 1
	for s := t.home(rid, gfn); ; s = (s + 1) & mask {
		i := t.table[s]
		if i == 0 {
			return s, false
		}
		if e := &t.entries[i-1]; e.gfn == gfn && e.rid == rid {
			return s, true
		}
	}
}

func (t *IOTLB) lookup(rid uint16, gfn uint64) (*iotlbEntry, bool) {
	if s, ok := t.slotOf(rid, gfn); ok {
		t.Hits++
		i := t.table[s] - 1
		t.touch(i)
		return &t.entries[i], true
	}
	t.Misses++
	return nil, false
}

// insert caches a translation that is not cached — the caller's lookup
// has just missed — evicting the least recently used one when full.
func (t *IOTLB) insert(rid uint16, gfn, mfn uint64, writable bool) {
	var i int32
	switch {
	case t.live >= t.capacity:
		i = t.tail
		t.remove(i)
	case t.free != noEntry:
		i = t.free
		t.free = t.entries[i].next
	default:
		i = int32(len(t.entries))
		t.entries = append(t.entries, iotlbEntry{})
	}
	if 2*(t.live+1) > len(t.table) {
		t.grow()
	}
	t.entries[i] = iotlbEntry{gfn: gfn, mfn: mfn, rid: rid, writable: writable}
	s, _ := t.slotOf(rid, gfn)
	t.table[s] = i + 1
	t.live++
	t.pushFront(i)
}

// grow doubles the table (16 slots at first) and re-indexes the live
// entries.
func (t *IOTLB) grow() {
	n := max(16, 2*len(t.table))
	t.table = make([]int32, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for i := t.head; i != noEntry; i = t.entries[i].next {
		e := &t.entries[i]
		s, _ := t.slotOf(e.rid, e.gfn)
		t.table[s] = i + 1
	}
}

// remove drops entry i from the table and the LRU list.
func (t *IOTLB) remove(i int32) {
	e := &t.entries[i]
	s, _ := t.slotOf(e.rid, e.gfn)
	t.unindex(s)
	t.unlink(i)
	t.live--
}

// unindex empties table slot s, shifting later members of its probe run
// back so every key stays reachable from its home slot without tombstones.
func (t *IOTLB) unindex(s int) {
	mask := len(t.table) - 1
	for j := s; ; {
		j = (j + 1) & mask
		i := t.table[j]
		if i == 0 {
			break
		}
		e := &t.entries[i-1]
		// The entry at j may move to s only if its home is not
		// cyclically within (s, j].
		if h := t.home(e.rid, e.gfn); (j-h)&mask >= (j-s)&mask {
			t.table[s] = i
			s = j
		}
	}
	t.table[s] = 0
}

func (t *IOTLB) touch(i int32) {
	if t.head == i {
		return
	}
	t.unlink(i)
	t.pushFront(i)
}

func (t *IOTLB) pushFront(i int32) {
	e := &t.entries[i]
	e.prev = noEntry
	e.next = t.head
	if t.head != noEntry {
		t.entries[t.head].prev = i
	}
	t.head = i
	if t.tail == noEntry {
		t.tail = i
	}
}

func (t *IOTLB) unlink(i int32) {
	e := &t.entries[i]
	if e.prev != noEntry {
		t.entries[e.prev].next = e.next
	} else {
		t.head = e.next
	}
	if e.next != noEntry {
		t.entries[e.next].prev = e.prev
	} else {
		t.tail = e.prev
	}
	e.prev, e.next = noEntry, noEntry
}

// InvalidateRID drops all cached translations for a requester.
func (t *IOTLB) InvalidateRID(rid uint16) {
	for i := t.head; i != noEntry; {
		next := t.entries[i].next
		if t.entries[i].rid == rid {
			t.remove(i)
			t.entries[i].next = t.free
			t.free = i
		}
		i = next
	}
}

// InvalidateAll empties the cache. The entry array and table are kept,
// so repeated invalidations settle into reuse.
func (t *IOTLB) InvalidateAll() {
	t.entries = t.entries[:0]
	clear(t.table)
	t.live = 0
	t.head, t.tail, t.free = noEntry, noEntry, noEntry
}

// Len reports the number of cached translations.
func (t *IOTLB) Len() int { return t.live }

// context is one requester's remapping state.
type context struct {
	domainID int
	pt       *pageTable
}

// IOMMU is the remapping engine.
type IOMMU struct {
	// contexts is the context table, indexed as VT-d's is: a root entry
	// per bus, then a context entry per device/function (rid = bus<<8 |
	// devfn). Bus tables are allocated on first attach.
	contexts [256]*[256]*context
	tlb      *IOTLB
	// irte is the interrupt-remapping table, indexed by vector; an entry
	// names the allowed requester (vectors are globally unique in this
	// system, §4.1).
	irte [256]IRTE
	// Counters holds the named event counts. The per-DMA and per-MSI ones
	// are resolved once, in New, so the hot paths never hash a name.
	Counters                *stats.Counters
	dma, walks, faults      *stats.Counter
	msiRemapped, msiBlocked *stats.Counter
	// Faults records rejected transactions for inspection.
	Faults []Fault
}

// New creates an IOMMU with the given IOTLB capacity.
func New(iotlbCapacity int) *IOMMU {
	c := stats.NewCounters()
	return &IOMMU{
		tlb:         NewIOTLB(iotlbCapacity),
		Counters:    c,
		dma:         c.Counter("dma"),
		walks:       c.Counter("ptwalk_accesses"),
		faults:      c.Counter("faults"),
		msiRemapped: c.Counter("msi_remapped"),
		msiBlocked:  c.Counter("msi_blocked"),
	}
}

// TLB exposes the IOTLB for inspection.
func (u *IOMMU) TLB() *IOTLB { return u.tlb }

// AttachDomain binds a requester ID to a remapping domain. Subsequent Map
// calls for the RID populate that domain's page table. Two RIDs attached to
// the same domainID share a page table, as two queues of one VF would.
func (u *IOMMU) AttachDomain(rid uint16, domainID int) {
	pt := u.domainTable(domainID)
	if pt == nil {
		pt = &pageTable{}
	}
	bus := &u.contexts[rid>>8]
	if *bus == nil {
		*bus = &[256]*context{}
	}
	(*bus)[rid&0xff] = &context{domainID: domainID, pt: pt}
}

// domainTable finds the page table of a domain some RID is attached to.
func (u *IOMMU) domainTable(domainID int) *pageTable {
	for _, bus := range u.contexts {
		if bus == nil {
			continue
		}
		for _, c := range bus {
			if c != nil && c.domainID == domainID {
				return c.pt
			}
		}
	}
	return nil
}

// context reports the RID's context, or nil.
func (u *IOMMU) context(rid uint16) *context {
	if bus := u.contexts[rid>>8]; bus != nil {
		return bus[rid&0xff]
	}
	return nil
}

func errNoContext(rid uint16) error {
	return fmt.Errorf("iommu: rid %#04x has no context", rid)
}

// DetachRID removes a requester's context and flushes its IOTLB entries —
// what device hot-removal (DNIS) does before migration.
func (u *IOMMU) DetachRID(rid uint16) {
	if bus := u.contexts[rid>>8]; bus != nil {
		bus[rid&0xff] = nil
	}
	u.tlb.InvalidateRID(rid)
}

// Attached reports whether the RID has a context.
func (u *IOMMU) Attached(rid uint16) bool { return u.context(rid) != nil }

// DomainOf reports the domain a RID is attached to.
func (u *IOMMU) DomainOf(rid uint16) (int, bool) {
	c := u.context(rid)
	if c == nil {
		return 0, false
	}
	return c.domainID, true
}

// Map installs a 4 KiB translation gfn→mfn for the RID's domain.
func (u *IOMMU) Map(rid uint16, gfn, mfn uint64, writable bool) error {
	c := u.context(rid)
	if c == nil {
		return errNoContext(rid)
	}
	c.pt.map4k(gfn, mfn, writable)
	return nil
}

// MapDomainMemory installs translations for a whole guest address space —
// what assigning a device to a VM does (the VMM maps the guest's p2m into
// the IOMMU so the guest can DMA anywhere in its own memory, and nowhere
// else).
func (u *IOMMU) MapDomainMemory(rid uint16, dm *mem.DomainMemory) error {
	if dm.Pages() == 0 {
		return nil
	}
	c := u.context(rid)
	if c == nil {
		return errNoContext(rid)
	}
	for gfn := uint64(0); gfn < dm.Pages(); gfn++ {
		mfn, err := dm.MFN(gfn)
		if err != nil {
			return err
		}
		c.pt.map4k(gfn, mfn, true)
	}
	return nil
}

// Unmap removes a translation and invalidates the IOTLB for the RID.
func (u *IOMMU) Unmap(rid uint16, gfn uint64) error {
	c := u.context(rid)
	if c == nil {
		return errNoContext(rid)
	}
	c.pt.unmap(gfn)
	u.tlb.InvalidateRID(rid)
	return nil
}

// TranslateDMA validates and translates one transaction. It satisfies
// pcie.Translator. Faults are recorded and returned as *Fault errors.
func (u *IOMMU) TranslateDMA(rid uint16, addr uint64, write bool) (uint64, error) {
	u.dma.Add(1)
	c := u.context(rid)
	if c == nil {
		return 0, u.fault(rid, addr, write, "no context for requester")
	}
	gfn := addr >> mem.PageShift
	off := addr & (uint64(mem.PageSize) - 1)
	if e, hit := u.tlb.lookup(rid, gfn); hit {
		if write && !e.writable {
			return 0, u.fault(rid, addr, write, "write to read-only mapping")
		}
		return e.mfn<<mem.PageShift | off, nil
	}
	leaf, hops := c.pt.walk(gfn)
	u.walks.Add(int64(hops))
	if !leaf.present() {
		return 0, u.fault(rid, addr, write, "not mapped")
	}
	if write && !leaf.writable() {
		return 0, u.fault(rid, addr, write, "write to read-only mapping")
	}
	u.tlb.insert(rid, gfn, leaf.mfn(), leaf.writable())
	return leaf.mfn()<<mem.PageShift | off, nil
}

func (u *IOMMU) fault(rid uint16, addr uint64, write bool, reason string) error {
	f := Fault{RID: rid, Addr: addr, Write: write, Reason: reason}
	u.Faults = append(u.Faults, f)
	u.faults.Add(1)
	return &f
}
