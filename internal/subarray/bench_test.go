package subarray

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/geometry"
)

// BenchmarkNewLayout times the boot-time layout build of the fleet
// benchmark's host: 2 sockets x 16 banks x 4096 rows of 512-row subarrays,
// without row transforms.
func BenchmarkNewLayout(b *testing.B) {
	g := geometry.Geometry{
		Sockets: 2, CoresPerSocket: 4, DIMMsPerSocket: 1, RanksPerDIMM: 2,
		BanksPerRank: 8, RowsPerBank: 4096, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: 512,
	}
	m, err := addr.NewSkylakeMapper(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewLayout(g, m, addr.TransformConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
