package pcie

import "testing"

// BenchmarkRouteDMA measures the fabric's share of one host-memory DMA: the
// MMIO aperture check and the hand-off to the translator, which here is a
// stub so the IOMMU's own cost (iommu.BenchmarkTranslateDMA*) stays out.
func BenchmarkRouteDMA(b *testing.B) {
	f, devA, pfA, _, _ := buildFabric(b)
	f.SetIOMMU(&fakeTranslator{})
	devA.SetVFsPresent(pfA, 7)
	vf := devA.VFs(pfA)[0]
	if _, err := f.HotAdd(vf.RID()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := f.RouteDMA(vf, uint64(i&1023)<<12, true); r.Blocked {
			b.Fatal(r.BlockReason)
		}
	}
}
