package core

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
)

var benchHPA uint64

// BenchmarkVMTranslate times the software TLB under every Runner.Issue and
// guest load/store: a warm hit, warm hits from parallel translators (reps of
// one benchmark VM share its TLB), and the refill after an invalidation (one
// table allocation plus an EPT walk per page of a 64 MiB guest).
func BenchmarkVMTranslate(b *testing.B) {
	h, err := Boot(testConfig(), ModeSiloz)
	if err != nil {
		b.Fatal(err)
	}
	const ramBytes = 64 * geometry.MiB
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "bench", Socket: 0, MemoryBytes: ramBytes})
	if err != nil {
		b.Fatal(err)
	}
	// A line-granular stride that visits every page of the guest.
	const stride = geometry.PageSize2M + geometry.CacheLineSize
	warm := func(b *testing.B) {
		for gpa := uint64(0); gpa < ramBytes; gpa += geometry.PageSize2M {
			if _, err := vm.Translate(gpa); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("hit", func(b *testing.B) {
		warm(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hpa, err := vm.Translate(uint64(i) * stride % ramBytes)
			if err != nil {
				b.Fatal(err)
			}
			benchHPA = hpa
		}
	})
	b.Run("hit-parallel", func(b *testing.B) {
		warm(b)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			var gpa, sum uint64
			for pb.Next() {
				hpa, err := vm.Translate(gpa)
				if err != nil {
					b.Error(err)
					return
				}
				sum += hpa
				gpa = (gpa + stride) % ramBytes
			}
			_ = sum
		})
	})
	b.Run("miss-after-invalidate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vm.InvalidateTLB()
			warm(b)
		}
	})
}

// benchGuest boots a host with one 128 MiB guest: 64 RAM leaves.
func benchGuest(b *testing.B) (*Hypervisor, *VM) {
	b.Helper()
	h, err := Boot(testConfig(), ModeSiloz)
	if err != nil {
		b.Fatal(err)
	}
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "bench", Socket: 0, AllowRemote: true, MemoryBytes: 128 * geometry.MiB})
	if err != nil {
		b.Fatal(err)
	}
	return h, vm
}

// BenchmarkSyncLeaves times the leaf edits of a layout commit on a second
// hierarchy over the guest's frames (what a device attach builds): create
// maps all 64 leaves onto empty tables and unmaps them again, commit remaps
// all 64 to other frames, as a migration's commit does.
func BenchmarkSyncLeaves(b *testing.B) {
	h, vm := benchGuest(b)
	a, err := h.eptAllocatorFor(vm.eptSocket)
	if err != nil {
		b.Fatal(err)
	}
	tables, err := ept.New(h.mem, eptAlloc{a}, h.cfg.EPTProtection)
	if err != nil {
		b.Fatal(err)
	}
	layouts := [2][]uint64{slices.Clone(vm.ram), slices.Clone(vm.ram)}
	slices.Reverse(layouts[1])
	var view []uint64
	sync := func(b *testing.B, ram []uint64) {
		if err := vm.syncLeaves(tables, &view, ram); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("create-64leaves", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sync(b, layouts[0])
			sync(b, nil)
		}
	})
	b.Run("commit-64leaves", func(b *testing.B) {
		sync(b, layouts[0])
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sync(b, layouts[(i+1)%2])
		}
	})
}

// BenchmarkDirtyArm times arming and disarming dirty logging over the 64
// leaves of a 128 MiB guest: what every pre-copy migration starts with and an
// aborted one ends with.
func BenchmarkDirtyArm(b *testing.B) {
	_, vm := benchGuest(b)
	b.Run("64leaves", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := vm.StartDirtyTracking(); err != nil {
				b.Fatal(err)
			}
			if err := vm.StopDirtyTracking(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMigrateVM moves a sparse guest between the sockets and back: 128
// MiB of RAM holding two 128-byte stamps, the shape of a fleet guest. What it
// times is mostly the proof that the other 62 pages are empty.
func BenchmarkMigrateVM(b *testing.B) {
	h, err := Boot(testConfig(), ModeSiloz)
	if err != nil {
		b.Fatal(err)
	}
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "sparse", Socket: 0, MemoryBytes: 128 * geometry.MiB})
	if err != nil {
		b.Fatal(err)
	}
	for _, gpa := range []uint64{3*geometry.PageSize2M + 4096, 40*geometry.PageSize2M + 512} {
		if err := vm.WriteGuest(gpa, bytes.Repeat([]byte{0xc3}, 128)); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("sparse-128M", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nodes, err := h.FreeNodes(1-vm.Nodes()[0].Socket, 128*geometry.MiB)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := h.MigrateVM(context.Background(), "sparse", nodes, MigrateOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAudit times one Audit on a populated host: three VMs over both
// sockets, one with guest-placed regions and a passthrough device.
func BenchmarkAudit(b *testing.B) {
	h, err := Boot(testConfig(), ModeSiloz)
	if err != nil {
		b.Fatal(err)
	}
	specs := []VMSpec{
		{Name: "regions", Socket: 0, MemoryBytes: 64 * geometry.MiB, Regions: []Region{
			{Name: "bios", Type: RegionROM, Bytes: 256 * geometry.KiB},
			{Name: "virtio-net", Type: RegionVirtio, Bytes: 128 * geometry.KiB},
		}},
		{Name: "b", Socket: 1, MemoryBytes: 128 * geometry.MiB},
		{Name: "c", Socket: 0, MemoryBytes: 64 * geometry.MiB},
	}
	for _, spec := range specs {
		if _, err := h.CreateVM(kvmProc(), spec); err != nil {
			b.Fatal(err)
		}
	}
	vm, _ := h.VM("regions")
	if _, err := h.AttachDevice(vm, "vf0"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if bad := h.Audit(); len(bad) != 0 {
			b.Fatal(bad)
		}
	}
}

// bootBenchConfig is the fleet benchmark's host: 2 sockets x 16 banks x 4096
// rows of 512-row subarrays, DIMM F with its row transforms stripped.
func bootBenchConfig() Config {
	g := testGeometry()
	g.RowsPerBank = 4096
	p := dram.ProfileF()
	p.Transforms = addr.TransformConfig{}
	return Config{Geometry: g, Profiles: []dram.Profile{p}}
}

// BenchmarkBoot times one Siloz boot of the fleet benchmark's host: the
// subarray layout, the offlining and every node's allocator.
func BenchmarkBoot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h, err := Boot(bootBenchConfig(), ModeSiloz)
		if err != nil {
			b.Fatal(err)
		}
		h.Shutdown()
	}
}

// BenchmarkBootSibling times the same boot beside a booted host of the box:
// the layout, mapper and row arena are the sibling's, so it is the
// offlining and every node's allocator.
func BenchmarkBootSibling(b *testing.B) {
	sib, err := Boot(bootBenchConfig(), ModeSiloz)
	if err != nil {
		b.Fatal(err)
	}
	cfg := bootBenchConfig()
	cfg.Sibling = sib
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := Boot(cfg, ModeSiloz)
		if err != nil {
			b.Fatal(err)
		}
		h.Shutdown()
	}
}
