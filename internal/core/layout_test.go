package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ept"
	"repro/internal/geometry"
)

// TestLayoutViewsAgree drives a random sequence of layout-changing
// operations on a VM with a passthrough device and, after every step,
// requires the three views of the RAM layout to agree page by page: what the
// EPT translates, what the device's IOMMU translates, and vm.ram — every
// ballooned page, from the end of vm.ram to the spec's size, faulting in both
// hierarchies.
func TestLayoutViewsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(20261002))
	done := map[string]int{} // operations that went through, by kind
	for round := 0; round < 6; round++ {
		h := bootSiloz(t)
		vm, err := h.CreateVM(kvmProc(), VMSpec{
			Name: "v", Socket: 0, AllowRemote: true, MemoryBytes: 32 * geometry.MiB,
			Regions: []Region{{Name: "bios", Type: RegionROM, Bytes: 16 * geometry.KiB}},
		})
		if err != nil {
			t.Fatal(err)
		}
		dev, err := h.AttachDevice(vm, "vf0")
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 40; step++ {
			var op string
			switch rng.Intn(4) {
			case 0:
				op = "balloon"
				room := vm.Spec().MemoryBytes/geometry.PageSize2M - 1
				_, err = h.ResizeVM("v", vm.Spec().MemoryBytes-uint64(rng.Intn(int(room)+1))*geometry.PageSize2M)
			case 1:
				op = "resize"
				_, err = h.ResizeVM("v", uint64(1+rng.Intn(48))*geometry.PageSize2M)
			case 2:
				op = "migrate"
				var dests []int
				if dests, err = h.FreeNodes(rng.Intn(2), vm.Spec().MemoryBytes); err == nil {
					_, err = h.MigrateVM(context.Background(), "v", dests, MigrateOptions{})
				}
			case 3:
				op = "write"
				// Data-bearing pages make the next vacate scrub. A DMA into
				// the balloon fails; the guest then writes its first page.
				pages := int(vm.Spec().MemoryBytes / geometry.PageSize2M)
				err = dev.DMAWrite(uint64(rng.Intn(pages))*geometry.PageSize2M, []byte{1})
				if err != nil {
					err = vm.WriteGuest(0, []byte{2})
				}
			}
			if err != nil && !errors.Is(err, ErrCapacityExhausted) {
				t.Fatalf("round %d step %d: %s: %v", round, step, op, err)
			}
			if err == nil {
				done[op]++
			}
			pages := int(vm.Spec().MemoryBytes / geometry.PageSize2M)
			want := slices.Clone(vm.ram)
			for len(want) < pages {
				want = append(want, hpaNone) // the balloon
			}
			eptWalk := walkLayout(pages, vm.TranslateUncached)
			iommuWalk := walkLayout(pages, dev.translate)
			if !reflect.DeepEqual(eptWalk, want) || !reflect.DeepEqual(iommuWalk, want) {
				t.Fatalf("round %d step %d after %s: views disagree:\nvm.ram %x (%d pages of %d)\nEPT    %x\nIOMMU  %x",
					round, step, op, vm.ram, len(vm.ram), pages, eptWalk, iommuWalk)
			}
			if !reflect.DeepEqual(vm.leaves, vm.ram) || !reflect.DeepEqual(dev.view, vm.ram) {
				t.Fatalf("round %d step %d after %s: recorded views drifted:\nvm.ram %x\nEPT    %x\nIOMMU  %x",
					round, step, op, vm.ram, vm.leaves, dev.view)
			}
			if past, err := dev.translate(uint64(pages) * geometry.PageSize2M); err == nil {
				t.Fatalf("round %d step %d after %s: device maps %#x past the end of RAM", round, step, op, past)
			}
		}
		if bad := h.Audit(); len(bad) != 0 {
			t.Fatalf("round %d: audit: %v", round, bad)
		}
	}
	for _, op := range []string{"balloon", "resize", "migrate", "write"} {
		if done[op] < 10 {
			t.Errorf("only %d %s operations went through: %v", done[op], op, done)
		}
	}
}

// bootSecure boots Siloz with SecureEPT, where a corrupted table entry is an
// integrity fault on the next walk or edit that reads it.
func bootSecure(t *testing.T) *Hypervisor {
	t.Helper()
	cfg := testConfig()
	cfg.EPTProtection = ept.SecureEPT
	h, err := Boot(cfg, ModeSiloz)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// corruptLeaf flips a bit of the table entry of tables that maps hpa — what
// a Rowhammer flip in the table's row does — and returns a function that
// repairs it.
func corruptLeaf(t *testing.T, h *Hypervisor, tables *ept.Tables, hpa uint64) (repair func()) {
	t.Helper()
	page := make([]byte, geometry.PageSize4K)
	for _, pa := range tables.Pages() {
		if err := h.mem.ReadPhys(pa, page); err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(page); off += 8 {
			entry := binary.LittleEndian.Uint64(page[off:])
			if entry&1 == 0 || entry&0x000F_FFFF_FFFF_F000 != hpa {
				continue
			}
			entryPA := pa + uint64(off)
			good := bytes.Clone(page[off : off+8])
			bad := bytes.Clone(good)
			bad[4] ^= 1
			if err := h.mem.WritePhys(entryPA, bad); err != nil {
				t.Fatal(err)
			}
			return func() {
				if err := h.mem.WritePhys(entryPA, good); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	t.Fatalf("no table entry maps %#x", hpa)
	return nil
}

// fillPattern writes a distinct byte to the start of every resident RAM page.
func fillPattern(t *testing.T, vm *VM) {
	t.Helper()
	for p := range vm.ram {
		if err := vm.WriteGuest(uint64(p)*geometry.PageSize2M, []byte{byte(0x40 + p)}); err != nil {
			t.Fatal(err)
		}
	}
}

// checkIntact requires the host to be as it was at before, the isolation
// audit clean, and the guest to read back fillPattern's bytes.
func checkIntact(t *testing.T, h *Hypervisor, vm *VM, before hostState) {
	t.Helper()
	if after := snapshotHost(h); !reflect.DeepEqual(before, after) {
		t.Errorf("state changed across the failed operation:\nbefore %+v\nafter  %+v", before, after)
	}
	if bad := h.Audit(); len(bad) != 0 {
		t.Errorf("audit: %v", bad)
	}
	for p := range vm.ram {
		var got [1]byte
		if err := vm.ReadGuest(uint64(p)*geometry.PageSize2M, got[:]); err != nil || got[0] != byte(0x40+p) {
			t.Errorf("page %d reads %#x (err %v), want %#x: the guest lost its data", p, got[0], err, 0x40+p)
		}
	}
}

// migrateWithFault runs a cross-socket migration of "v" during which, once
// dirty logging is armed and the first round has copied, the table entry of
// tables mapping hpa is corrupted. It repairs the entry afterwards.
func migrateWithFault(t *testing.T, h *Hypervisor, tables *ept.Tables, hpa uint64) error {
	t.Helper()
	var repair func()
	_, err := h.MigrateVM(context.Background(), "v", freeGuestNodes(t, h, 1, 16*geometry.MiB), MigrateOptions{
		GuestStep: func(round int) error {
			if round == 0 {
				repair = corruptLeaf(t, h, tables, hpa)
			}
			return nil
		},
	})
	repair()
	return err
}

// TestMigrateRegionLegFaultKeepsSourceFrames: an integrity fault on a moved
// region's 4 KiB leaf fails the commit's region leg. (The parent had by then
// remapped every RAM leaf to its destination frame, and its abort scrubbed
// and freed those frames under the running guest.)
func TestMigrateRegionLegFaultKeepsSourceFrames(t *testing.T) {
	for _, page := range []int{0, 2} {
		h := bootSecure(t)
		vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "v", Socket: 0, MemoryBytes: 16 * geometry.MiB,
			Regions: []Region{{Name: "bios", Type: RegionROM, Bytes: 16 * geometry.KiB}}})
		if err != nil {
			t.Fatal(err)
		}
		fillPattern(t, vm)
		before := snapshotHost(h)
		if err := migrateWithFault(t, h, vm.tables, vm.regions[0].pages[page]); !errors.Is(err, ept.ErrIntegrity) {
			t.Fatalf("region page %d corrupted: migration err = %v, want an integrity fault", page, err)
		}
		checkIntact(t, h, vm, before)
	}
}

// TestMigrateDeviceSyncFaultRollsBack: an integrity fault in a passthrough
// device's IOMMU table fails the commit after every EPT leaf has moved. (The
// parent returned the error with the guest on its destination frames, the
// source frames never scrubbed or freed and the domain still widened.)
func TestMigrateDeviceSyncFaultRollsBack(t *testing.T) {
	for _, page := range []int{0, 3} {
		h := bootSecure(t)
		vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "v", Socket: 0, MemoryBytes: 16 * geometry.MiB})
		if err != nil {
			t.Fatal(err)
		}
		dev, err := h.AttachDevice(vm, "vf0")
		if err != nil {
			t.Fatal(err)
		}
		fillPattern(t, vm)
		before := snapshotHost(h)
		if err := migrateWithFault(t, h, dev.tables, vm.ram[page]); !errors.Is(err, ept.ErrIntegrity) {
			t.Fatalf("IOMMU leaf %d corrupted: migration err = %v, want an integrity fault", page, err)
		}
		checkIntact(t, h, vm, before)
		// The source frames are still the guest's: a retry succeeds.
		if _, err := h.MigrateVM(context.Background(), "v", freeGuestNodes(t, h, 1, 16*geometry.MiB), MigrateOptions{}); err != nil {
			t.Fatalf("retry after the repaired fault: %v", err)
		}
		if bad := h.Audit(); len(bad) != 0 {
			t.Fatalf("audit after retry: %v", bad)
		}
	}
}

// TestInflateUnmapFaultRestoresLeaves: an integrity fault on the k-th
// surrendered leaf fails a balloon inflate with k leaves already unmapped.
// (The parent returned there: those leaves gone, vm.ram and the balloon set
// half-updated, the TLB and the device not resynced, the frames neither
// restored nor freed.)
func TestInflateUnmapFaultRestoresLeaves(t *testing.T) {
	for _, k := range []int{0, 2} {
		h := bootSecure(t)
		vm, _ := attachTestDevice(t, h)
		fillPattern(t, vm)
		before := snapshotHost(h)
		repair := corruptLeaf(t, h, vm.tables, vm.ram[len(vm.ram)-1-k]) // the inflate surrenders the top 4
		_, err := h.ResizeVM(vm.Name(), 28*geometry.PageSize2M)
		repair()
		if !errors.Is(err, ept.ErrIntegrity) {
			t.Fatalf("victim %d corrupted: inflate err = %v, want an integrity fault", k, err)
		}
		checkIntact(t, h, vm, before) // the device's IOMMU walk included
		if _, err := h.ResizeVM(vm.Name(), 28*geometry.PageSize2M); err != nil {
			t.Fatalf("retry after the repaired fault: %v", err)
		}
		if bad := h.Audit(); len(bad) != 0 {
			t.Fatalf("audit after retry: %v", bad)
		}
	}
}

// TestSyncLeavesFaultMidRun fails the leaf-edit seam at every leaf of three
// syncs now issued as runs — a 64-leaf create (all maps, onto an empty
// hierarchy), a remap-heavy commit (every frame moves, two holes fill, two
// open) and an inflate (two stretches of unmaps) — and checks, at the moment
// of the failure, that the view records exactly the entries the tables hold
// in DRAM: a run ends before the faulting leaf and the view advances by what
// was stored, no more. Syncing back to the old layout then restores it, and
// the audit is clean.
func TestSyncLeavesFaultMidRun(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "v", Socket: 0, AllowRemote: true, MemoryBytes: 128 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	frames := slices.Clone(vm.ram)
	if len(frames) != 64 {
		t.Fatalf("the guest has %d RAM leaves, want 64", len(frames))
	}
	moved := slices.Clone(frames)
	slices.Reverse(moved)
	moved[10], moved[11], moved[40], moved[41] = hpaNone, hpaNone, hpaNone, hpaNone
	holed := slices.Clone(frames)
	holed[20], holed[21] = hpaNone, hpaNone // filled by the commit
	inflated := slices.Clone(frames)
	for _, p := range []int{3, 4, 5, 6, 7, 30, 31, 32, 63} {
		inflated[p] = hpaNone
	}
	a, err := h.eptAllocatorFor(vm.eptSocket)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		from, to []uint64
		edits    int
	}{
		{"create-64", nil, frames, 64},
		{"commit-remap", holed, moved, 64}, // 58 remaps, 2 maps, 4 unmaps
		{"inflate", frames, inflated, 9},
	}
	// agrees requires view and tables to describe one layout, leaf by leaf.
	agrees := func(t *testing.T, tables *ept.Tables, view []uint64, slots int) {
		t.Helper()
		for p := 0; p < slots; p++ {
			want := hpaNone
			if p < len(view) {
				want = view[p]
			}
			hpa, err := tables.Translate(uint64(p) * geometry.PageSize2M)
			switch {
			case want == hpaNone && !errors.Is(err, ept.ErrNotMapped):
				t.Fatalf("leaf %d: the view records a hole, the tables translate to %#x, %v", p, hpa, err)
			case want != hpaNone && (err != nil || hpa != want):
				t.Fatalf("leaf %d: the view records %#x, the tables translate to %#x, %v", p, want, hpa, err)
			}
		}
	}
	for _, c := range cases {
		for k := 1; k <= c.edits+1; k++ {
			t.Run(fmt.Sprintf("%s/leaf-%d", c.name, k), func(t *testing.T) {
				tables, err := ept.New(h.mem, eptAlloc{a}, h.cfg.EPTProtection)
				if err != nil {
					t.Fatal(err)
				}
				defer tables.Destroy()
				var view []uint64
				if err := vm.syncLeaves(tables, &view, c.from); err != nil {
					t.Fatal(err)
				}
				calls := 0
				h.leafHook = func() error {
					if calls++; calls == k {
						return errInjected
					}
					return nil
				}
				defer func() { h.leafHook = nil }()
				err = vm.syncLeaves(tables, &view, c.to)
				if k > c.edits {
					if err != nil || calls != c.edits {
						t.Fatalf("unfaulted sync: err = %v after %d leaf edits, want %d", err, calls, c.edits)
					}
					agrees(t, tables, c.to, 64)
					return
				}
				if !errors.Is(err, errInjected) {
					t.Fatalf("err = %v, want the injected fault", err)
				}
				if calls != k {
					t.Errorf("the seam was consulted %d times before the fault at leaf %d", calls, k)
				}
				agrees(t, tables, view, 64)
				edited := 0
				for p := range view {
					if p < len(c.to) && view[p] == c.to[p] && (p >= len(c.from) || c.from[p] != c.to[p]) {
						edited++
					}
				}
				if edited != k-1 {
					t.Errorf("%d leaves reached the new layout before the fault at leaf %d, want %d", edited, k, k-1)
				}
				if err := vm.syncLeaves(tables, &view, c.from); err != nil {
					t.Fatalf("rollback: %v", err)
				}
				agrees(t, tables, c.from, 64)
				if !slices.Equal(view, c.from) {
					t.Errorf("view after rollback %x, want %x", view, c.from)
				}
			})
		}
	}
	if bad := h.Audit(); len(bad) != 0 {
		t.Errorf("audit: %v", bad)
	}
	agrees(t, vm.tables, vm.leaves, 64)
}
