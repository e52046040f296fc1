package core

import (
	"bytes"
	"testing"

	"repro/internal/geometry"
)

// TestDestroyVMScrubsGuestMemory: §5.3's teardown must not leak one tenant's
// bytes to the next. A destroyed VM's RAM, mediated, and region pages are
// zeroed before they return to the free pools, so a successor VM reusing the
// same frames can never read the predecessor's data.
func TestDestroyVMScrubsGuestMemory(t *testing.T) {
	h := bootSiloz(t)
	secret := []byte("tenant-a private key material 0xDEADBEEF")
	vma, err := h.CreateVM(kvmProc(), VMSpec{
		Name: "a", Socket: 0, MemoryBytes: 64 * geometry.MiB,
		MediatedBytes: 8 * geometry.KiB,
		Regions:       []Region{{Name: "bios", Type: RegionROM, Bytes: 16 * geometry.KiB}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Plant the secret in RAM (several pages), a mediated page, and ROM.
	for _, gpa := range []uint64{0, 5*geometry.PageSize2M + 1234, 31 * geometry.PageSize2M} {
		if err := vma.WriteGuest(gpa, secret); err != nil {
			t.Fatal(err)
		}
	}
	if err := vma.WriteGuest(MediatedBase+64, secret); err != nil {
		t.Fatal(err)
	}
	romPages, err := vma.RegionPages("bios")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Memory().WritePhys(romPages[0], secret); err != nil {
		t.Fatal(err)
	}

	ramPages := vma.RAMPages()
	mediated := vma.MediatedPages()
	if err := h.DestroyVM("a"); err != nil {
		t.Fatal(err)
	}

	// Every frame the tenant could have written is zero at the hardware
	// level — before any successor even exists.
	probe := make([]byte, len(secret))
	check := func(pa uint64, what string) {
		t.Helper()
		if err := h.Memory().ReadPhys(pa, probe); err != nil {
			t.Fatal(err)
		}
		if !allZero(probe) {
			t.Errorf("%s frame %#x not scrubbed", what, pa)
		}
	}
	for _, pa := range ramPages {
		check(pa, "RAM")
	}
	for _, pa := range mediated {
		check(pa, "mediated")
	}
	for _, pa := range romPages {
		check(pa, "ROM")
	}

	// A successor VM reusing the node reads only zeros.
	vmb, err := h.CreateVM(kvmProc(), VMSpec{Name: "b", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, geometry.PageSize2M)
	for p := 0; p < len(vmb.RAMPages()); p++ {
		if err := vmb.ReadGuest(uint64(p)*geometry.PageSize2M, buf); err != nil {
			t.Fatal(err)
		}
		if !allZero(buf) {
			t.Fatalf("successor VM read a previous tenant's bytes in page %d", p)
		}
		if bytes.Contains(buf, secret) {
			t.Fatalf("secret survived into successor VM page %d", p)
		}
	}
}

// TestBalloonDrainScrubsNodePages: the partial-release invariant's scrub
// half — when inflation drains a whole subarray-group node, every byte of
// that node is zero before it re-enters the admission pool.
func TestBalloonDrainScrubsNodePages(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "bal", Socket: 0, MemoryBytes: 128 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	// Dirty a spread of pages in the half that will be surrendered.
	secret := []byte("tenant secret that must not survive the balloon")
	for p := 32; p < 64; p += 5 {
		if err := vm.WriteGuest(uint64(p)*geometry.PageSize2M+99, secret); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := h.ResizeVM("bal", 64*geometry.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ReleasedNodes) != 1 {
		t.Fatalf("ReleasedNodes = %v, want one drained node", rep.ReleasedNodes)
	}
	node, err := h.Topology().Node(rep.ReleasedNodes[0])
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, geometry.PageSize4K)
	for _, r := range node.Ranges {
		for pa := r.Start; pa+geometry.PageSize4K <= r.End; pa += geometry.PageSize4K {
			if err := h.Memory().ReadPhys(pa, buf); err != nil {
				t.Fatal(err)
			}
			if !allZero(buf) {
				t.Fatalf("drained node %d leaks data at %#x", node.ID, pa)
			}
		}
	}
}

// TestFreshMemoryAfterHammer: memory that leaves an owner reads zero, also
// where DRAM rather than a store changed it. A guest's own Hammer flips
// cells in frames it never wrote — its own and its domain's free frames —
// which no ledger of stores records. Two paths hand such a cell to the next
// tenant unless it is scrubbed: a surrendered frame, and a free frame of a
// node that leaves the domain — drained by a shrink, or at teardown.
func TestFreshMemoryAfterHammer(t *testing.T) {
	buf := make([]byte, geometry.PageSize2M)
	nonzero := func(t *testing.T, read func(off uint64, b []byte) error, pages int) int {
		t.Helper()
		n := 0
		for p := 0; p < pages; p++ {
			if err := read(uint64(p)*geometry.PageSize2M, buf); err != nil {
				t.Fatal(err)
			}
			n += len(buf) - bytes.Count(buf, []byte{0})
		}
		return n
	}
	hammer := func(t *testing.T, h *Hypervisor, vm *VM, pages ...int) {
		t.Helper()
		for _, p := range pages {
			if err := vm.Hammer(uint64(p)*geometry.PageSize2M, 20000, 0); err != nil {
				t.Fatal(err)
			}
		}
		h.mem.Refresh()
		if len(h.mem.Flips()) == 0 {
			t.Fatal("the hammer flipped nothing: scenario broken")
		}
	}
	successor := func(t *testing.T, h *Hypervisor, bytes uint64) int {
		t.Helper()
		vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "b", Socket: 0, MemoryBytes: bytes})
		if err != nil {
			t.Fatal(err)
		}
		return nonzero(t, vm.ReadGuest, len(vm.ram))
	}

	// A 32 MiB VM that never stores hammers its page 5, surrenders pages
	// 5 and up, and is destroyed; the next VM gets the frames.
	t.Run("surrendered-frame", func(t *testing.T) {
		h := bootSiloz(t)
		a, err := h.CreateVM(kvmProc(), VMSpec{Name: "a", Socket: 0, MemoryBytes: 32 * geometry.MiB})
		if err != nil {
			t.Fatal(err)
		}
		hammer(t, h, a, 5)
		gone := a.RAMPages()[5:]
		if _, err := h.ResizeVM("a", 5*geometry.PageSize2M); err != nil {
			t.Fatal(err)
		}
		phys := func(off uint64, b []byte) error {
			return h.mem.ReadPhys(gone[off/geometry.PageSize2M], b)
		}
		if n := nonzero(t, phys, len(gone)); n != 0 {
			t.Errorf("the surrendered frames hold %d nonzero bytes", n)
		}
		if err := h.DestroyVM("a"); err != nil {
			t.Fatal(err)
		}
		if n := successor(t, h, 32*geometry.MiB); n != 0 {
			t.Errorf("a new VM reads %d nonzero bytes", n)
		}
	})

	// A 96 MiB VM hammers every page of its half of its second node and
	// balloons down to its first; a 64 MiB VM gets the drained node.
	t.Run("drained-node", func(t *testing.T) {
		h := bootSiloz(t)
		a, err := h.CreateVM(kvmProc(), VMSpec{Name: "a", Socket: 0, MemoryBytes: 96 * geometry.MiB})
		if err != nil {
			t.Fatal(err)
		}
		hammer(t, h, a, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47)
		rep, err := h.ResizeVM("a", 64*geometry.MiB)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.ReleasedNodes) != 1 {
			t.Fatalf("released nodes %v, want one: scenario broken", rep.ReleasedNodes)
		}
		if n := successor(t, h, 64*geometry.MiB); n != 0 {
			t.Errorf("a new VM on drained node %d reads %d nonzero bytes", rep.ReleasedNodes[0], n)
		}
	})

	// A 32 MiB VM hammers every page of its half of a node and is
	// destroyed; a 64 MiB VM gets the whole node, free frames included.
	t.Run("released-node", func(t *testing.T) {
		h := bootSiloz(t)
		a, err := h.CreateVM(kvmProc(), VMSpec{Name: "a", Socket: 0, MemoryBytes: 32 * geometry.MiB})
		if err != nil {
			t.Fatal(err)
		}
		hammer(t, h, a, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
		node := a.Nodes()[0].ID
		if err := h.DestroyVM("a"); err != nil {
			t.Fatal(err)
		}
		if n := successor(t, h, 64*geometry.MiB); n != 0 {
			t.Errorf("a new VM on node %d reads %d nonzero bytes", node, n)
		}
	})
}
