package numa

import (
	"testing"

	"repro/internal/subarray"
)

// BenchmarkRegistryChurn is the registry's share of one migration: adopt a
// destination node, read the widened domain and the owners the planner
// reads, then release the source.
func BenchmarkRegistryChurn(b *testing.B) {
	topo := &Topology{}
	for i := 0; i < 16; i++ {
		kind := GuestReserved
		if i%8 == 0 {
			kind = HostReserved
		}
		if _, err := topo.AddNode(&Node{Kind: kind, Socket: i / 8, Ranges: []subarray.Range{mkRange(uint64(i)<<30, 1<<30)}}); err != nil {
			b.Fatal(err)
		}
	}
	reg := NewRegistry(topo)
	for v := 0; v < 4; v++ {
		if _, err := reg.Create(string(rune('a'+v)), []int{1 + v}); err != nil {
			b.Fatal(err)
		}
	}
	cg, err := reg.Create("vm:churn", []int{9})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	src, dst := []int{9}, []int{10}
	for i := 0; i < b.N; i++ {
		if err := reg.Expand("vm:churn", dst); err != nil {
			b.Fatal(err)
		}
		_ = cg.Nodes()
		for id := 0; id < 16; id++ {
			_, _ = reg.OwnerOf(id)
		}
		if err := reg.Shrink("vm:churn", src); err != nil {
			b.Fatal(err)
		}
		src, dst = dst, src
	}
}
