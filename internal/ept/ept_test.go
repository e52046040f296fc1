package ept

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/dram"
	"repro/internal/geometry"
	"repro/internal/subarray"

	allocpkg "repro/internal/alloc"
)

func tinyGeometry() geometry.Geometry {
	return geometry.Geometry{
		Sockets:         1,
		CoresPerSocket:  4,
		DIMMsPerSocket:  1,
		RanksPerDIMM:    2,
		BanksPerRank:    2,
		RowsPerBank:     2048,
		RowBytes:        8 * geometry.KiB,
		RowsPerSubarray: 512,
	}
}

func testProfile() dram.Profile {
	p := dram.ProfileF() // no TRR: deterministic flips
	p.VulnerableRowFraction = 1
	p.HammerThreshold = 1000
	p.Transforms = addr.TransformConfig{}
	return p
}

// allocAdapter exposes a buddy allocator as a PageAllocator.
type allocAdapter struct{ a *allocpkg.Allocator }

func (ad allocAdapter) AllocTablePage() (uint64, error) { return ad.a.Alloc(0) }
func (ad allocAdapter) FreeTablePage(pa uint64)         { _ = ad.a.Free(pa, 0) }

func testEnv(t *testing.T, mode IntegrityMode) (*dram.Memory, *Tables, *allocpkg.Allocator) {
	t.Helper()
	g := tinyGeometry()
	mapper, err := addr.NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := dram.NewMemory(g, mapper, []dram.Profile{testProfile()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := allocpkg.New([]subarray.Range{{Start: 0, End: 16 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	tables, err := New(mem, allocAdapter{a}, mode)
	if err != nil {
		t.Fatal(err)
	}
	return mem, tables, a
}

func TestMapAndTranslate2M(t *testing.T) {
	_, tables, _ := testEnv(t, NoProtection)
	gpa := uint64(4 * geometry.PageSize2M)
	hpa := uint64(20 << 20)
	if _, err := tables.MapRun(gpa, []uint64{hpa}, geometry.PageSize2M, true); err != nil {
		t.Fatal(err)
	}
	got, err := tables.Translate(gpa + 12345)
	if err != nil {
		t.Fatal(err)
	}
	if got != hpa+12345 {
		t.Errorf("Translate = %#x, want %#x", got, hpa+12345)
	}
}

func TestMapAndTranslate4K(t *testing.T) {
	_, tables, _ := testEnv(t, NoProtection)
	if _, err := tables.MapRun(0x7000, []uint64{0x123000}, geometry.PageSize4K, true); err != nil {
		t.Fatal(err)
	}
	got, err := tables.Translate(0x7abc)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x123abc {
		t.Errorf("Translate = %#x, want 0x123abc", got)
	}
}

func TestTranslateUnmapped(t *testing.T) {
	_, tables, _ := testEnv(t, NoProtection)
	if _, err := tables.Translate(0xdead000); err == nil {
		t.Error("unmapped gpa translated")
	}
}

func TestMapAlignmentChecks(t *testing.T) {
	_, tables, _ := testEnv(t, NoProtection)
	if _, err := tables.MapRun(4096, []uint64{0}, geometry.PageSize2M, true); err == nil {
		t.Error("misaligned 2M gpa accepted")
	}
	if _, err := tables.MapRun(0, []uint64{4096}, geometry.PageSize2M, true); err == nil {
		t.Error("misaligned 2M hpa accepted")
	}
	if _, err := tables.MapRun(1, []uint64{0}, geometry.PageSize4K, true); err == nil {
		t.Error("misaligned 4K gpa accepted")
	}
}

func TestMapManyPagesSharesTables(t *testing.T) {
	// 512 consecutive 2 MiB mappings fill exactly one PD: 1 root + 1
	// PDPT + 1 PD = 3 table pages (§5.4's EPT-count arithmetic).
	_, tables, _ := testEnv(t, NoProtection)
	for i := uint64(0); i < 512; i++ {
		if _, err := tables.MapRun(i*geometry.PageSize2M, []uint64{i * geometry.PageSize2M}, geometry.PageSize2M, true); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(tables.Pages()); got != 3 {
		t.Errorf("table pages = %d, want 3", got)
	}
	// The 513th spills into a second PD.
	if _, err := tables.MapRun(512*geometry.PageSize2M, []uint64{0}, geometry.PageSize2M, true); err != nil {
		t.Fatal(err)
	}
	if got := len(tables.Pages()); got != 4 {
		t.Errorf("table pages = %d, want 4", got)
	}
}

func TestDoubleMapRejected(t *testing.T) {
	_, tables, _ := testEnv(t, NoProtection)
	if _, err := tables.MapRun(0, []uint64{0}, geometry.PageSize2M, true); err != nil {
		t.Fatal(err)
	}
	if _, err := tables.MapRun(4096, []uint64{0}, geometry.PageSize4K, true); err == nil {
		t.Error("4K map under an existing 2M leaf accepted")
	}
}

func TestDestroyReleasesPages(t *testing.T) {
	_, tables, a := testEnv(t, NoProtection)
	for i := uint64(0); i < 8; i++ {
		if _, err := tables.MapRun(i*geometry.PageSize2M, []uint64{i * geometry.PageSize2M}, geometry.PageSize2M, true); err != nil {
			t.Fatal(err)
		}
	}
	used := a.UsedBytes()
	if used == 0 {
		t.Fatal("no pages allocated?")
	}
	tables.Destroy()
	if a.UsedBytes() != 0 {
		t.Errorf("UsedBytes = %d after Destroy", a.UsedBytes())
	}
}

// corruptEntry flips one bit of a present EPT leaf entry directly in DRAM,
// simulating a Rowhammer flip (no legitimate writeEntry involved).
func corruptEntry(t *testing.T, mem *dram.Memory, tables *Tables, gpa uint64) {
	t.Helper()
	// Walk manually to the leaf entry PA: for a 2M mapping the PD page
	// is the 3rd table page; entry index from gpa.
	pages := tables.Pages()
	pd := pages[2]
	entryPA := pd + ((gpa>>21)&0x1FF)*8
	var buf [8]byte
	if err := mem.ReadPhys(entryPA, buf[:]); err != nil {
		t.Fatal(err)
	}
	buf[3] ^= 0x10 // flip a frame bit
	if err := mem.WritePhys(entryPA, buf[:]); err != nil {
		t.Fatal(err)
	}
}

func TestUnprotectedEPTFollowsCorruptedEntry(t *testing.T) {
	// The §5.4 threat: without integrity, a flipped EPT entry silently
	// redirects the VM to a different HPA.
	mem, tables, _ := testEnv(t, NoProtection)
	gpa := uint64(0)
	hpa := uint64(32 << 20)
	if _, err := tables.MapRun(gpa, []uint64{hpa}, geometry.PageSize2M, true); err != nil {
		t.Fatal(err)
	}
	corruptEntry(t, mem, tables, gpa)
	got, err := tables.Translate(gpa)
	if err != nil {
		t.Fatal(err)
	}
	if got == hpa {
		t.Error("corruption had no effect; test is vacuous")
	}
}

func TestSecureEPTDetectsCorruption(t *testing.T) {
	mem, tables, _ := testEnv(t, SecureEPT)
	gpa := uint64(0)
	if _, err := tables.MapRun(gpa, []uint64{32 << 20}, geometry.PageSize2M, true); err != nil {
		t.Fatal(err)
	}
	if _, err := tables.Translate(gpa); err != nil {
		t.Fatalf("clean translate failed: %v", err)
	}
	corruptEntry(t, mem, tables, gpa)
	if _, err := tables.Translate(gpa); err == nil {
		t.Fatal("secure EPT missed corruption")
	}
}

func TestSecureEPTAllowsLegitimateUpdates(t *testing.T) {
	_, tables, _ := testEnv(t, SecureEPT)
	for i := uint64(0); i < 16; i++ {
		if _, err := tables.MapRun(i*geometry.PageSize2M, []uint64{i * geometry.PageSize2M}, geometry.PageSize2M, true); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 16; i++ {
		hpa, err := tables.Translate(i * geometry.PageSize2M)
		if err != nil {
			t.Fatalf("translate %d: %v", i, err)
		}
		if hpa != i*geometry.PageSize2M {
			t.Errorf("translate %d = %#x", i, hpa)
		}
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[IntegrityMode]string{NoProtection: "none", SecureEPT: "secure-ept", GuardRows: "guard-rows", IntegrityMode(7): "invalid"} {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q", m, got)
		}
	}
}

func TestSoftRefreshMissesDeadlines(t *testing.T) {
	// §8.3: both scheduling models miss 1 ms deadlines; the task model
	// misses nearly always (sleeps are *at least* the period) and shows
	// >32 ms gaps.
	task := SimulateSoftRefresh(DefaultSoftRefreshConfig(TaskScheduled))
	if task.MissedDeadlines == 0 {
		t.Error("task model never missed a deadline; paper observed pervasive misses")
	}
	if task.MaxGap < 32*time.Millisecond {
		t.Errorf("task model max gap %v, paper observed >32 ms", task.MaxGap)
	}
	tick := SimulateSoftRefresh(DefaultSoftRefreshConfig(TickInterrupt))
	if tick.MissedDeadlines == 0 {
		t.Error("tick model never missed a deadline; paper observed delayed/dropped ticks")
	}
	// The tick model is better but still not safe — exactly the paper's
	// conclusion motivating guard rows.
	if tick.MissRate() >= task.MissRate() {
		t.Errorf("tick miss rate %.4f should be below task miss rate %.4f", tick.MissRate(), task.MissRate())
	}
	if task.Refreshes == 0 || tick.Refreshes == 0 {
		t.Error("no refreshes simulated")
	}
}

func TestSoftRefreshDeterminism(t *testing.T) {
	cfg := DefaultSoftRefreshConfig(TaskScheduled)
	a := SimulateSoftRefresh(cfg)
	b := SimulateSoftRefresh(cfg)
	if a != b {
		t.Error("soft refresh simulation not deterministic")
	}
}

func TestUnmap(t *testing.T) {
	for _, mode := range []IntegrityMode{NoProtection, SecureEPT} {
		_, tables, _ := testEnv(t, mode)
		gpa := uint64(8 * geometry.PageSize2M)
		if _, err := tables.MapRun(gpa, []uint64{16 << 20}, geometry.PageSize2M, true); err != nil {
			t.Fatal(err)
		}
		if _, err := tables.Translate(gpa); err != nil {
			t.Fatal(err)
		}
		if _, err := tables.UnmapRun(gpa, 1, geometry.PageSize4K); err != nil {
			t.Fatal(err)
		}
		if _, err := tables.Translate(gpa); err == nil {
			t.Errorf("mode %v: unmapped gpa still translates", mode)
		}
		if _, err := tables.UnmapRun(gpa, 1, geometry.PageSize4K); err == nil {
			t.Errorf("mode %v: double unmap accepted", mode)
		}
		// The slot is reusable.
		if _, err := tables.MapRun(gpa, []uint64{24 << 20}, geometry.PageSize2M, true); err != nil {
			t.Fatal(err)
		}
		hpa, err := tables.Translate(gpa)
		if err != nil || hpa != 24<<20 {
			t.Errorf("mode %v: remap translate = %#x, %v", mode, hpa, err)
		}
	}
}

func TestProtectTogglesWritePermission(t *testing.T) {
	for _, mode := range []IntegrityMode{NoProtection, SecureEPT, GuardRows} {
		t.Run(mode.String(), func(t *testing.T) {
			_, tables, _ := testEnv(t, mode)
			gpa := uint64(0)
			hpa := uint64(4 << 20)
			if _, err := tables.MapRun(gpa, []uint64{hpa}, geometry.PageSize2M, true); err != nil {
				t.Fatal(err)
			}

			// Arm write protection: reads still translate, writes fault.
			if err := tables.Protect(gpa, false); err != nil {
				t.Fatal(err)
			}
			got, err := tables.TranslateAccess(gpa+123, false)
			if err != nil || got != hpa+123 {
				t.Fatalf("read translate after protect = %#x, %v", got, err)
			}
			if _, err := tables.TranslateAccess(gpa, true); !errors.Is(err, ErrPermission) {
				t.Fatalf("write through protected leaf: err = %v, want ErrPermission", err)
			}

			// Re-enable: the frame must be unchanged.
			if err := tables.Protect(gpa, true); err != nil {
				t.Fatal(err)
			}
			got, err = tables.TranslateAccess(gpa, true)
			if err != nil || got != hpa {
				t.Fatalf("write translate after unprotect = %#x, %v", got, err)
			}

			// 4 KiB leaves are protectable too.
			gpa4, hpa4 := uint64(1)<<31, uint64(8<<20)
			if _, err := tables.MapRun(gpa4, []uint64{hpa4}, geometry.PageSize4K, true); err != nil {
				t.Fatal(err)
			}
			if err := tables.Protect(gpa4, false); err != nil {
				t.Fatal(err)
			}
			if _, err := tables.TranslateAccess(gpa4, true); !errors.Is(err, ErrPermission) {
				t.Fatalf("write through protected 4K leaf: err = %v", err)
			}
		})
	}
}

func TestProtectUnmappedFails(t *testing.T) {
	_, tables, _ := testEnv(t, NoProtection)
	if err := tables.Protect(1<<33, false); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("Protect of unmapped gpa: err = %v, want ErrNotMapped", err)
	}
}

// TestWalkersSeeWholeEntriesDuringRunEdits: translators walk on several
// goroutines while the hypervisor's goroutine write-protects, reopens and
// remaps runs over the very leaves they walk (dirty-log arming and a layout
// commit, without the pause). A span is read, checked and stored under one
// hold of the entry lock a walker takes per entry, so every walk sees whole
// entries: the old frame, the new frame or a permission fault — never a torn
// entry, a hole or an integrity failure.
func TestWalkersSeeWholeEntriesDuringRunEdits(t *testing.T) {
	const leaves = 24
	base := uint64(500) * geometry.PageSize2M // the run crosses a page-directory boundary
	for _, mode := range []IntegrityMode{NoProtection, SecureEPT} {
		t.Run(mode.String(), func(t *testing.T) {
			_, tables, _ := testEnv(t, mode)
			var frames [2][]uint64
			for i := uint64(0); i < leaves; i++ {
				frames[0] = append(frames[0], (i+1)*geometry.PageSize2M)
				frames[1] = append(frames[1], (i+1+leaves)*geometry.PageSize2M)
			}
			if _, err := tables.MapRun(base, frames[0], geometry.PageSize2M, true); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var walks atomic.Int64
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for n := w; ; n++ {
						select {
						case <-stop:
							return
						default:
						}
						walks.Add(1)
						i, off := uint64(n%leaves), uint64(n*64%geometry.PageSize2M)
						hpa, err := tables.TranslateAccess(base+i*geometry.PageSize2M+off, n%2 == 0)
						switch {
						case err == nil && (hpa == frames[0][i]+off || hpa == frames[1][i]+off):
						case errors.Is(err, ErrPermission) && n%2 == 0:
						default:
							t.Errorf("walker %d: leaf %d translated to %#x, %v; want %#x, %#x or a write fault",
								w, i, hpa, err, frames[0][i]+off, frames[1][i]+off)
							return
						}
					}
				}(w)
			}
			for round := 0; (round < 300 || walks.Load() < 4000) && !t.Failed(); round++ {
				from, n := round%7, leaves-round%11
				n = min(n, leaves-from)
				gpa := base + uint64(from)*geometry.PageSize2M
				if _, err := tables.ProtectRun(gpa, n, geometry.PageSize2M, false); err != nil {
					t.Fatal(err)
				}
				if _, err := tables.RemapRun(gpa, frames[(round+1)%2][from:from+n], geometry.PageSize2M, round%3 != 0); err != nil {
					t.Fatal(err)
				}
				if _, err := tables.ProtectRun(base, leaves, geometry.PageSize2M, true); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}
