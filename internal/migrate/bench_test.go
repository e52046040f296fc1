package migrate

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geometry"
)

// BenchmarkOccupancy is the planner's read of every guest node: its owner and
// one locked free-space reading of its allocator. The fleet reads it on every
// admission and defragment.
func BenchmarkOccupancy(b *testing.B) {
	h, err := core.Boot(testConfig(), core.ModeSiloz)
	if err != nil {
		b.Fatal(err)
	}
	for i, name := range []string{"a", "b"} {
		if _, err := h.CreateVM(kvmProc(), core.VMSpec{Name: name, Socket: i, MemoryBytes: 96 * geometry.MiB}); err != nil {
			b.Fatal(err)
		}
	}
	p := NewPlanner(h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Occupancy(); err != nil {
			b.Fatal(err)
		}
	}
}
