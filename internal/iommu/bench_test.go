package iommu

import (
	"testing"

	"repro/internal/mem"
)

// benchRID is a VF requester on bus 1, as the testbed's VFs are.
const benchRID = 0x0108

// benchIOMMU returns an IOMMU with a 4096-entry IOTLB, as core.NewTestbed
// builds, and pages translations for benchRID.
func benchIOMMU(pages uint64) *IOMMU {
	u := New(4096)
	u.AttachDomain(benchRID, 1)
	for g := uint64(0); g < pages; g++ {
		u.Map(benchRID, g, 1<<20+g, true)
	}
	return u
}

// BenchmarkTranslateDMAHit translates within a working set the IOTLB holds.
func BenchmarkTranslateDMAHit(b *testing.B) {
	u := benchIOMMU(64)
	for g := uint64(0); g < 64; g++ {
		u.TranslateDMA(benchRID, g<<mem.PageShift, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.TranslateDMA(benchRID, uint64(i&63)<<mem.PageShift, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslateDMAMiss sweeps twice the IOTLB's capacity in order, so
// every translation misses, walks the page table and evicts the least
// recently used entry — what every DMA of the 60-guest scalability runs
// does.
func BenchmarkTranslateDMAMiss(b *testing.B) {
	const pages = 8192
	u := benchIOMMU(pages)
	for g := uint64(0); g < pages; g++ {
		u.TranslateDMA(benchRID, g<<mem.PageShift, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.TranslateDMA(benchRID, uint64(i%pages)<<mem.PageShift, true); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTranslateDMAZeroAllocs pins the steady state of both paths at zero
// allocations: a hit touches the LRU list in place, and a miss against a
// full IOTLB reuses the evicted entry's slot.
func TestTranslateDMAZeroAllocs(t *testing.T) {
	u := benchIOMMU(8192)
	for g := uint64(0); g < 8192; g++ {
		u.TranslateDMA(benchRID, g<<mem.PageShift, true)
	}
	var g uint64
	miss := testing.AllocsPerRun(1000, func() {
		u.TranslateDMA(benchRID, g<<mem.PageShift, true)
		g = (g + 1) % 8192
	})
	hit := testing.AllocsPerRun(1000, func() {
		u.TranslateDMA(benchRID, 8191<<mem.PageShift, true)
	})
	if miss != 0 || hit != 0 {
		t.Fatalf("TranslateDMA allocates: %.1f/op on a miss, %.1f/op on a hit; want 0", miss, hit)
	}
	if u.TLB().Misses < 8192+1000 {
		t.Fatalf("misses = %d: the sweep did not miss", u.TLB().Misses)
	}
}
