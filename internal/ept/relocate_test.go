package ept

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"testing"

	"repro/internal/dram"
	"repro/internal/geometry"
	"repro/internal/subarray"

	allocpkg "repro/internal/alloc"
)

// Regression: mapping a 2 MiB leaf over a PD entry that points at a live
// 4 KiB page table must fail — the old code overwrote the entry, silently
// dropping every 4 KiB mapping under it and orphaning the table page.
func TestMap2MOverPageTableRejected(t *testing.T) {
	_, tables, _ := testEnv(t, NoProtection)
	gpa4 := uint64(0x7000) // lives in the PT under PD entry 0
	if _, err := tables.MapRun(gpa4, []uint64{0x123000}, geometry.PageSize4K, true); err != nil {
		t.Fatal(err)
	}
	before := len(tables.Pages())
	if _, err := tables.MapRun(0, []uint64{16 << 20}, geometry.PageSize2M, true); !errors.Is(err, ErrAlreadyMapped) {
		t.Fatalf("Map2M over a live page table: err = %v, want ErrAlreadyMapped", err)
	}
	// The 4 KiB mapping must have survived and no table page leaked.
	if got, err := tables.Translate(gpa4); err != nil || got != 0x123000 {
		t.Fatalf("4K mapping lost after rejected 2M map: %#x, %v", got, err)
	}
	if got := len(tables.Pages()); got != before {
		t.Errorf("table pages = %d, want %d (rejected map must not allocate)", got, before)
	}
}

// Regression: double-mapping the same GPA at the same size must fail rather
// than silently replacing the frame.
func TestMapOverPresentLeafRejected(t *testing.T) {
	_, tables, _ := testEnv(t, NoProtection)
	if _, err := tables.MapRun(0, []uint64{4 << 20}, geometry.PageSize2M, true); err != nil {
		t.Fatal(err)
	}
	if _, err := tables.MapRun(0, []uint64{8 << 20}, geometry.PageSize2M, true); !errors.Is(err, ErrAlreadyMapped) {
		t.Fatalf("second Map2M: err = %v, want ErrAlreadyMapped", err)
	}
	gpa4 := uint64(1) << 31
	if _, err := tables.MapRun(gpa4, []uint64{0x1000}, geometry.PageSize4K, true); err != nil {
		t.Fatal(err)
	}
	if _, err := tables.MapRun(gpa4, []uint64{0x2000}, geometry.PageSize4K, true); !errors.Is(err, ErrAlreadyMapped) {
		t.Fatalf("second Map4K: err = %v, want ErrAlreadyMapped", err)
	}
	// The originals are intact.
	if got, _ := tables.Translate(0); got != 4<<20 {
		t.Errorf("2M frame replaced: %#x", got)
	}
	if got, _ := tables.Translate(gpa4); got != 0x1000 {
		t.Errorf("4K frame replaced: %#x", got)
	}
}

func TestRemapReplacesLeaf(t *testing.T) {
	for _, mode := range []IntegrityMode{NoProtection, SecureEPT} {
		t.Run(mode.String(), func(t *testing.T) {
			_, tables, _ := testEnv(t, mode)
			if _, err := tables.MapRun(0, []uint64{4 << 20}, geometry.PageSize2M, true); err != nil {
				t.Fatal(err)
			}
			if _, err := tables.RemapRun(0, []uint64{8 << 20}, geometry.PageSize2M, true); err != nil {
				t.Fatal(err)
			}
			if got, err := tables.Translate(0); err != nil || got != 8<<20 {
				t.Fatalf("after remap: %#x, %v", got, err)
			}
			// Remap of an unmapped GPA fails — it is not a Map.
			if _, err := tables.RemapRun(2*geometry.PageSize2M, []uint64{0}, geometry.PageSize2M, true); !errors.Is(err, ErrNotMapped) {
				t.Fatalf("remap of unmapped gpa: err = %v, want ErrNotMapped", err)
			}
			// Remap4K over a PD entry holding a page-table pointer... first
			// build the 4K mapping, then check Remap2M over its PD entry fails.
			gpa4 := uint64(1) << 31
			if _, err := tables.MapRun(gpa4, []uint64{0x3000}, geometry.PageSize4K, true); err != nil {
				t.Fatal(err)
			}
			if _, err := tables.RemapRun(gpa4, []uint64{4 << 20}, geometry.PageSize2M, true); !errors.Is(err, ErrAlreadyMapped) {
				t.Fatalf("Remap2M over page-table pointer: err = %v, want ErrAlreadyMapped", err)
			}
			if _, err := tables.RemapRun(gpa4, []uint64{0x4000}, geometry.PageSize4K, false); err != nil {
				t.Fatal(err)
			}
			if _, err := tables.TranslateAccess(gpa4, true); !errors.Is(err, ErrPermission) {
				t.Fatalf("remapped read-only leaf writable: %v", err)
			}
		})
	}
}

// Regression: Destroy used to leave root dangling and macs populated, so a
// use-after-destroy walked freed frames with stale MACs.
func TestUseAfterDestroyFailsLoudly(t *testing.T) {
	for _, mode := range []IntegrityMode{NoProtection, SecureEPT} {
		t.Run(mode.String(), func(t *testing.T) {
			_, tables, a := testEnv(t, mode)
			if _, err := tables.MapRun(0, []uint64{4 << 20}, geometry.PageSize2M, true); err != nil {
				t.Fatal(err)
			}
			tables.Destroy()
			if a.UsedBytes() != 0 {
				t.Fatalf("UsedBytes = %d after Destroy", a.UsedBytes())
			}
			if len(tables.Pages()) != 0 {
				t.Error("Pages() non-empty after Destroy")
			}
			if _, err := tables.Translate(0); !errors.Is(err, ErrDestroyed) {
				t.Errorf("Translate after Destroy: err = %v, want ErrDestroyed", err)
			}
			if _, err := tables.MapRun(0, []uint64{4 << 20}, geometry.PageSize2M, true); !errors.Is(err, ErrDestroyed) {
				t.Errorf("Map2M after Destroy: err = %v, want ErrDestroyed", err)
			}
			if _, err := tables.UnmapRun(0, 1, geometry.PageSize4K); !errors.Is(err, ErrDestroyed) {
				t.Errorf("Unmap after Destroy: err = %v, want ErrDestroyed", err)
			}
			if _, err := tables.Relocate(allocAdapter{a}); !errors.Is(err, ErrDestroyed) {
				t.Errorf("Relocate after Destroy: err = %v, want ErrDestroyed", err)
			}
			tables.Destroy() // idempotent
		})
	}
}

func TestRelocateMovesHierarchy(t *testing.T) {
	for _, mode := range []IntegrityMode{NoProtection, SecureEPT} {
		t.Run(mode.String(), func(t *testing.T) {
			mem, tables, src := testEnv(t, mode)
			dst, err := allocpkg.New([]subarray.Range{{Start: 32 << 20, End: 48 << 20}})
			if err != nil {
				t.Fatal(err)
			}
			type mapping struct{ gpa, hpa uint64 }
			var want []mapping
			for i := uint64(0); i < 8; i++ {
				m := mapping{i * geometry.PageSize2M, (i + 8) * geometry.PageSize2M}
				if _, err := tables.MapRun(m.gpa, []uint64{m.hpa}, geometry.PageSize2M, true); err != nil {
					t.Fatal(err)
				}
				want = append(want, m)
			}
			// A 4 KiB region and a read-only page, to cover every entry shape.
			g4 := uint64(1) << 31
			if _, err := tables.MapRun(g4, []uint64{0x5000}, geometry.PageSize4K, true); err != nil {
				t.Fatal(err)
			}
			want = append(want, mapping{g4, 0x5000})
			if err := tables.Protect(0, false); err != nil {
				t.Fatal(err)
			}

			nPages := len(tables.Pages())
			moved, err := tables.Relocate(allocAdapter{dst})
			if err != nil {
				t.Fatal(err)
			}
			if moved != nPages {
				t.Errorf("relocated %d pages, want %d", moved, nPages)
			}
			if src.UsedBytes() != 0 {
				t.Errorf("source allocator UsedBytes = %d, want 0", src.UsedBytes())
			}
			for _, pa := range tables.Pages() {
				if pa < 32<<20 || pa >= 48<<20 {
					t.Errorf("table page %#x outside destination range", pa)
				}
			}
			for _, m := range want {
				got, err := tables.Translate(m.gpa)
				if err != nil || got != m.hpa {
					t.Errorf("translate %#x = %#x, %v; want %#x", m.gpa, got, err, m.hpa)
				}
			}
			// Write protection survived the move.
			if _, err := tables.TranslateAccess(0, true); !errors.Is(err, ErrPermission) {
				t.Errorf("protection lost across relocation: %v", err)
			}
			// The hierarchy is still mutable in place.
			if _, err := tables.MapRun(32*geometry.PageSize2M, []uint64{0}, geometry.PageSize2M, true); err != nil {
				t.Fatal(err)
			}
			if mode == SecureEPT {
				// MACs were re-keyed for the new PAs: corruption on a NEW
				// table page is still detected.
				corruptEntry(t, mem, tables, 0)
				if _, err := tables.Translate(0); !errors.Is(err, ErrIntegrity) {
					t.Errorf("corruption on relocated table missed: %v", err)
				}
			}
		})
	}
}

// smallAlloc fails after budget pages, forcing a mid-relocation allocation
// failure.
type smallAlloc struct {
	inner  allocAdapter
	budget int
}

func (s *smallAlloc) AllocTablePage() (uint64, error) {
	if s.budget <= 0 {
		return 0, errors.New("smallAlloc: out of pages")
	}
	s.budget--
	return s.inner.AllocTablePage()
}
func (s *smallAlloc) FreeTablePage(pa uint64) { s.inner.FreeTablePage(pa) }

func TestRelocateRollsBackOnAllocFailure(t *testing.T) {
	for _, mode := range []IntegrityMode{NoProtection, SecureEPT} {
		t.Run(mode.String(), func(t *testing.T) {
			_, tables, src := testEnv(t, mode)
			for i := uint64(0); i < 4; i++ {
				if _, err := tables.MapRun(i*geometry.PageSize2M, []uint64{i * geometry.PageSize2M}, geometry.PageSize2M, true); err != nil {
					t.Fatal(err)
				}
			}
			dstInner, err := allocpkg.New([]subarray.Range{{Start: 32 << 20, End: 48 << 20}})
			if err != nil {
				t.Fatal(err)
			}
			dst := &smallAlloc{inner: allocAdapter{dstInner}, budget: 1}
			usedBefore := src.UsedBytes()
			pagesBefore := tables.Pages()
			if _, err := tables.Relocate(dst); err == nil {
				t.Fatal("relocation with a 1-page allocator succeeded")
			}
			// Everything drawn from the destination went back, the old
			// hierarchy is untouched and still works.
			if dstInner.UsedBytes() != 0 {
				t.Errorf("destination UsedBytes = %d after failed relocation", dstInner.UsedBytes())
			}
			if src.UsedBytes() != usedBefore {
				t.Errorf("source UsedBytes changed: %d -> %d", usedBefore, src.UsedBytes())
			}
			after := tables.Pages()
			if len(after) != len(pagesBefore) {
				t.Fatalf("table page count changed: %d -> %d", len(pagesBefore), len(after))
			}
			for i := range after {
				if after[i] != pagesBefore[i] {
					t.Errorf("table page %d moved: %#x -> %#x", i, pagesBefore[i], after[i])
				}
			}
			for i := uint64(0); i < 4; i++ {
				got, err := tables.Translate(i * geometry.PageSize2M)
				if err != nil || got != i*geometry.PageSize2M {
					t.Errorf("translate %d after failed relocation: %#x, %v", i, got, err)
				}
			}
		})
	}
}

// scriptAlloc draws table pages from inner, counts every page out and back,
// and lets a test take over the k-th draw: fail it, hand out a page beyond
// the end of memory (so the store to it fails), or run something mid-draw.
type scriptAlloc struct {
	inner PageAllocator
	draws int
	at    func(draw int) (pa uint64, override bool, err error)
	out   map[uint64]int // page -> times drawn minus times returned
	freed int
}

const beyondMemory = uint64(1) << 40

func (s *scriptAlloc) AllocTablePage() (pa uint64, err error) {
	s.draws++
	override := false
	if s.at != nil {
		pa, override, err = s.at(s.draws)
	}
	if !override {
		pa, err = s.inner.AllocTablePage()
	}
	if err == nil {
		if s.out == nil {
			s.out = make(map[uint64]int)
		}
		s.out[pa]++
	}
	return pa, err
}

func (s *scriptAlloc) FreeTablePage(pa uint64) {
	s.freed++
	if s.out[pa]--; s.out[pa] == 0 {
		delete(s.out, pa)
	}
	if pa != beyondMemory {
		s.inner.FreeTablePage(pa)
	}
}

// TestNewFreesRootWhenZeroingFails: a root page the zeroing store cannot
// reach goes back to the allocator instead of leaking.
func TestNewFreesRootWhenZeroingFails(t *testing.T) {
	mem, _, _ := testEnv(t, NoProtection)
	a := &scriptAlloc{at: func(int) (uint64, bool, error) { return beyondMemory, true, nil }}
	if tables, err := New(mem, a, SecureEPT); err == nil {
		t.Fatalf("New on a root beyond the end of memory succeeded: %v", tables.Pages())
	}
	if a.freed != 1 || len(a.out) != 0 {
		t.Errorf("root page freed %d times, %d pages still out; want 1 and 0", a.freed, len(a.out))
	}
}

// relocationFixture maps 2 MiB leaves in two page directories and a 4 KiB
// table, one leaf write-protected: five table pages, every entry shape.
func relocationFixture(t *testing.T, tables *Tables) (gpas []uint64) {
	t.Helper()
	for _, slot := range []uint64{510, 511, 512, 513} {
		gpa := slot * geometry.PageSize2M
		if _, err := tables.MapRun(gpa, []uint64{(slot - 500) * geometry.PageSize2M}, geometry.PageSize2M, true); err != nil {
			t.Fatal(err)
		}
		gpas = append(gpas, gpa)
	}
	g4 := 514 * uint64(geometry.PageSize2M)
	if _, err := tables.MapRun(g4, []uint64{0x5000}, geometry.PageSize4K, false); err != nil {
		t.Fatal(err)
	}
	if err := tables.Protect(gpas[1], false); err != nil {
		t.Fatal(err)
	}
	return append(gpas, g4)
}

// destinationPool is a second table-page pool, clear of testEnv's.
func destinationPool(t *testing.T) *allocpkg.Allocator {
	t.Helper()
	a, err := allocpkg.New([]subarray.Range{{Start: 32 << 20, End: 48 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// hierarchyState is everything a failed relocation must leave as it was.
type hierarchyState struct {
	pages []uint64
	bytes [][]byte
	macs  map[uint64]uint64
	hpas  []uint64
}

func captureHierarchy(t *testing.T, mem *dram.Memory, tables *Tables, gpas []uint64) hierarchyState {
	t.Helper()
	s := hierarchyState{pages: tables.Pages(), macs: maps.Clone(tables.macs)}
	for _, pa := range s.pages {
		img := make([]byte, tableBytes)
		if err := mem.ReadPhys(pa, img); err != nil {
			t.Fatal(err)
		}
		s.bytes = append(s.bytes, img)
	}
	for _, gpa := range gpas {
		hpa, err := tables.Translate(gpa)
		if err != nil {
			t.Fatalf("translate %#x: %v", gpa, err)
		}
		s.hpas = append(s.hpas, hpa)
	}
	return s
}

// TestRelocateUnwindsAtEveryStep fails a relocation at every page it draws —
// the allocator exhausted at the k-th draw, then the k-th page one the store
// cannot reach — and checks the unwind: the old hierarchy byte-identical and
// live, every drawn page returned exactly once, no MAC left behind for a
// returned page, and a retry that goes through.
func TestRelocateUnwindsAtEveryStep(t *testing.T) {
	errExhausted := errors.New("out of table pages")
	faults := map[string]func() (uint64, bool, error){
		"exhausted":   func() (uint64, bool, error) { return 0, true, errExhausted },
		"store-fails": func() (uint64, bool, error) { return beyondMemory, true, nil },
	}
	for _, mode := range []IntegrityMode{NoProtection, SecureEPT, GuardRows} {
		for name, fault := range faults {
			for k := 1; ; k++ {
				mem, tables, src := testEnv(t, mode)
				gpas := relocationFixture(t, tables)
				before := captureHierarchy(t, mem, tables, gpas)
				if k > len(before.pages) {
					break
				}
				t.Run(fmt.Sprintf("%s/%s-%d", mode, name, k), func(t *testing.T) {
					dstInner := destinationPool(t)
					dst := &scriptAlloc{inner: allocAdapter{dstInner}}
					dst.at = func(draw int) (uint64, bool, error) {
						if draw == k {
							return fault()
						}
						return 0, false, nil
					}
					srcUsed := src.UsedBytes()
					if _, err := tables.Relocate(dst); err == nil {
						t.Fatal("relocation went through; the injected failure was never reached")
					} else if name == "exhausted" && !errors.Is(err, errExhausted) {
						t.Errorf("err = %v, want the allocator's error wrapped", err)
					}
					if len(dst.out) != 0 || dstInner.UsedBytes() != 0 {
						t.Errorf("pages not returned exactly once: %v still out, destination holds %d bytes", dst.out, dstInner.UsedBytes())
					}
					if src.UsedBytes() != srcUsed {
						t.Errorf("source allocator UsedBytes %d -> %d", srcUsed, src.UsedBytes())
					}
					if after := captureHierarchy(t, mem, tables, gpas); !reflect.DeepEqual(before, after) {
						t.Errorf("old hierarchy changed across the failed relocation:\nbefore %+v\nafter  %+v", before, after)
					}
					if _, err := tables.TranslateAccess(gpas[1], true); !errors.Is(err, ErrPermission) {
						t.Errorf("write protection lost: %v", err)
					}
					dst.at = nil
					moved, err := tables.Relocate(dst)
					if err != nil || moved != len(before.pages) {
						t.Fatalf("retry moved %d pages, %v; want %d", moved, err, len(before.pages))
					}
					if src.UsedBytes() != 0 || len(dst.out) != moved {
						t.Errorf("after the retry the source holds %d bytes and %d pages are out of the destination", src.UsedBytes(), len(dst.out))
					}
					if mode == SecureEPT && len(tables.macs) != moved*tableBytes/entrySize {
						t.Errorf("%d MACs for %d live pages", len(tables.macs), moved)
					}
					for i, gpa := range gpas {
						if hpa, err := tables.Translate(gpa); err != nil || hpa != before.hpas[i] {
							t.Errorf("translate %#x after the retry = %#x, %v; want %#x", gpa, hpa, err, before.hpas[i])
						}
					}
				})
			}
		}
	}
}

// TestRelocateSeesDestroyAtEveryStep destroys the hierarchy from inside the
// k-th page draw of its relocation — after any check made on entry. The
// relocation must fail with ErrDestroyed and return what it drew: the check
// is part of every locked page load and store, not a read made once, outside
// the lock, at the top.
func TestRelocateSeesDestroyAtEveryStep(t *testing.T) {
	for _, mode := range []IntegrityMode{NoProtection, SecureEPT} {
		for k := 1; k <= 5; k++ {
			t.Run(fmt.Sprintf("%s/draw-%d", mode, k), func(t *testing.T) {
				_, tables, src := testEnv(t, mode)
				relocationFixture(t, tables)
				dst := &scriptAlloc{inner: allocAdapter{destinationPool(t)}}
				dst.at = func(draw int) (uint64, bool, error) {
					if draw == k {
						tables.Destroy()
					}
					return 0, false, nil
				}
				if _, err := tables.Relocate(dst); !errors.Is(err, ErrDestroyed) {
					t.Errorf("err = %v, want ErrDestroyed", err)
				}
				if len(dst.out) != 0 || src.UsedBytes() != 0 {
					t.Errorf("%d destination pages still out, source holds %d bytes", len(dst.out), src.UsedBytes())
				}
				if len(tables.macs) != 0 {
					t.Errorf("%d MACs outlive the hierarchy", len(tables.macs))
				}
			})
		}
	}
}
