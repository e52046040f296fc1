package ept

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/dram"
	"repro/internal/geometry"
	"repro/internal/subarray"

	allocpkg "repro/internal/alloc"
)

// benchTables builds a populated hierarchy for benchmarking.
func benchTables(b *testing.B, mode IntegrityMode) *Tables {
	b.Helper()
	g := tinyGeometry()
	mapper, err := addr.NewSkylakeMapper(g)
	if err != nil {
		b.Fatal(err)
	}
	mem, err := dram.NewMemory(g, mapper, []dram.Profile{testProfile()}, nil)
	if err != nil {
		b.Fatal(err)
	}
	a, err := allocpkg.New([]subarray.Range{{Start: 0, End: 16 << 20}})
	if err != nil {
		b.Fatal(err)
	}
	tables, err := New(mem, allocAdapter{a}, mode)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < 16; i++ {
		if _, err := tables.MapRun(i*geometry.PageSize2M, []uint64{i * geometry.PageSize2M}, geometry.PageSize2M, true); err != nil {
			b.Fatal(err)
		}
	}
	return tables
}

func BenchmarkTranslate2M(b *testing.B) {
	for _, mode := range []IntegrityMode{NoProtection, SecureEPT} {
		b.Run(mode.String(), func(b *testing.B) {
			tables := benchTables(b, mode)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tables.Translate(uint64(i%16) * geometry.PageSize2M); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRemap2M times one single-leaf edit: the edit walk, one span of one
// entry, one store.
func BenchmarkRemap2M(b *testing.B) {
	tables := benchTables(b, NoProtection)
	for i := uint64(16); i < 416; i++ {
		if _, err := tables.MapRun(i*geometry.PageSize2M, []uint64{i * geometry.PageSize2M}, geometry.PageSize2M, true); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gpa := uint64(16+i%400) * geometry.PageSize2M
		if _, err := tables.RemapRun(gpa, []uint64{gpa}, geometry.PageSize2M, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelocate moves a 128 MiB guest's hierarchy (root, PDPT, PD and one
// 4 KiB table) between two pools: per table page one load, one store.
func BenchmarkRelocate(b *testing.B) {
	for _, mode := range []IntegrityMode{NoProtection, SecureEPT} {
		b.Run(mode.String(), func(b *testing.B) {
			tables := benchTables(b, mode)
			for i := uint64(16); i < 64; i++ {
				if _, err := tables.MapRun(i*geometry.PageSize2M, []uint64{i * geometry.PageSize2M}, geometry.PageSize2M, true); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := tables.MapRun(1<<31, []uint64{0x5000}, geometry.PageSize4K, true); err != nil {
				b.Fatal(err)
			}
			var pools [2]PageAllocator
			for i := range pools {
				a, err := allocpkg.New([]subarray.Range{{Start: uint64(32+16*i) << 20, End: uint64(48+16*i) << 20}})
				if err != nil {
					b.Fatal(err)
				}
				pools[i] = allocAdapter{a}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tables.Relocate(pools[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLeafRun times one 64-leaf run of each kind — what a layout commit,
// a dirty-log arming and an inflate hand the tables for a 128 MiB guest. The
// map and unmap cases work through 64 regions of 64 leaves and reset them,
// off the clock, each time round.
func BenchmarkLeafRun(b *testing.B) {
	const leaves, regions = 64, 64
	var frames [2][]uint64
	for i := uint64(0); i < leaves; i++ {
		frames[0] = append(frames[0], i*geometry.PageSize2M)
		frames[1] = append(frames[1], (i+leaves)*geometry.PageSize2M)
	}
	region := func(i int) uint64 { return uint64(1+i%regions) * leaves * geometry.PageSize2M }
	fill := func(b *testing.B, tables *Tables, unmap bool) {
		b.StopTimer()
		for r := 0; r < regions; r++ {
			var err error
			if unmap {
				_, err = tables.UnmapRun(region(r), leaves, geometry.PageSize2M)
			} else {
				_, err = tables.MapRun(region(r), frames[0], geometry.PageSize2M, true)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
	b.Run("map-64leaves", func(b *testing.B) {
		tables := benchTables(b, NoProtection)
		fill(b, tables, false) // allocate the directories once
		for i := 0; i < b.N; i++ {
			if i%regions == 0 {
				fill(b, tables, true)
			}
			if _, err := tables.MapRun(region(i), frames[0], geometry.PageSize2M, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmap-64leaves", func(b *testing.B) {
		tables := benchTables(b, NoProtection)
		for i := 0; i < b.N; i++ {
			if i%regions == 0 {
				fill(b, tables, false)
			}
			if _, err := tables.UnmapRun(region(i), leaves, geometry.PageSize2M); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("remap-64leaves", func(b *testing.B) {
		tables := benchTables(b, NoProtection)
		fill(b, tables, false)
		for i := 0; i < b.N; i++ {
			if _, err := tables.RemapRun(region(0), frames[(i+1)%2], geometry.PageSize2M, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("protect-64leaves", func(b *testing.B) {
		tables := benchTables(b, NoProtection)
		fill(b, tables, false)
		for i := 0; i < b.N; i++ {
			if _, err := tables.ProtectRun(region(0), leaves, geometry.PageSize2M, i%2 != 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
