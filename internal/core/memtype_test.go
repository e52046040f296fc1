package core

import (
	"bytes"
	"testing"

	"repro/internal/geometry"
	"repro/internal/numa"
)

func TestRegionTypeClassification(t *testing.T) {
	// §5.1: RAM and ROM are unmediated (ROM reads don't exit); MMIO and
	// virtio are mediated.
	for typ, want := range map[RegionType]bool{
		RegionRAM: true, RegionROM: true, RegionMMIO: false, RegionVirtio: false,
	} {
		if typ.Unmediated() != want {
			t.Errorf("%v.Unmediated() = %v, want %v", typ, typ.Unmediated(), want)
		}
	}
	if RegionType(99).String() != "invalid" {
		t.Error("String fallback wrong")
	}
}

func createRegionVM(t *testing.T, h *Hypervisor) *VM {
	t.Helper()
	vm, err := h.CreateVM(kvmProc(), VMSpec{
		Name: "regions", Socket: 0, MemoryBytes: 64 * geometry.MiB,
		Regions: []Region{
			{Name: "bios", Type: RegionROM, Bytes: 256 * geometry.KiB},
			{Name: "vga", Type: RegionMMIO, Bytes: 64 * geometry.KiB},
			{Name: "virtio-net", Type: RegionVirtio, Bytes: 128 * geometry.KiB},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestRegionPlacementFollowsMediation(t *testing.T) {
	h := bootSiloz(t)
	vm := createRegionVM(t, h)
	hostNode := h.Topology().NodesOnSocket(0, numa.HostReserved)[0]

	// ROM: unmediated -> guest domain.
	romPages, err := vm.RegionPages("bios")
	if err != nil {
		t.Fatal(err)
	}
	for _, pa := range romPages {
		if !vm.InDomain(pa) {
			t.Errorf("ROM page %#x outside the VM's subarray groups", pa)
		}
	}
	// MMIO and virtio: mediated -> host node.
	for _, name := range []string{"vga", "virtio-net"} {
		pages, err := vm.RegionPages(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, pa := range pages {
			if !hostNode.Contains(pa) {
				t.Errorf("%s page %#x outside the host node", name, pa)
			}
			if vm.InDomain(pa) {
				t.Errorf("%s page %#x inside the guest domain", name, pa)
			}
		}
	}
}

func TestROMIsHammerableButMMIOIsNot(t *testing.T) {
	// §5.1's rationale: unmediated reads suffice to hammer, so ROM must
	// be guest-placed; MMIO accesses exit and can be rate-limited.
	h := bootSiloz(t)
	vm := createRegionVM(t, h)
	romGPA, err := vm.RegionGPA("bios")
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Hammer(romGPA, 20_000, 0); err != nil {
		t.Fatalf("ROM hammering should be possible (unmediated reads): %v", err)
	}
	// All resulting flips stay in the VM's own domain.
	for _, f := range h.Memory().Flips() {
		pa, err := h.Memory().FlipPhys(f)
		if err != nil {
			t.Fatal(err)
		}
		if !vm.InDomain(pa) {
			t.Errorf("ROM-hammering flip escaped the domain: %v", f)
		}
	}
	vgaGPA, err := vm.RegionGPA("vga")
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Hammer(vgaGPA, 1000, 0); err == nil {
		t.Error("MMIO hammering must be refused (mediated)")
	}
	virtioGPA, err := vm.RegionGPA("virtio-net")
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Hammer(virtioGPA, 1000, 0); err == nil {
		t.Error("virtio ring hammering must be refused (host-managed DMA)")
	}
}

func TestRegionIO(t *testing.T) {
	h := bootSiloz(t)
	vm := createRegionVM(t, h)
	payload := []byte("option rom contents")
	for _, name := range []string{"bios", "vga", "virtio-net"} {
		gpa, err := vm.RegionGPA(name)
		if err != nil {
			t.Fatal(err)
		}
		// Cross a 4 KiB page boundary.
		addr := gpa + geometry.PageSize4K - 7
		if err := vm.WriteGuest(addr, payload); err != nil {
			t.Fatalf("%s write: %v", name, err)
		}
		got := make([]byte, len(payload))
		if err := vm.ReadGuest(addr, got); err != nil {
			t.Fatalf("%s read: %v", name, err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("%s round trip failed", name)
		}
	}
}

func TestRegionValidationAndCleanup(t *testing.T) {
	h := bootSiloz(t)
	if _, err := h.CreateVM(kvmProc(), VMSpec{
		Name: "bad", Socket: 0, MemoryBytes: geometry.PageSize2M,
		Regions: []Region{{Name: "x", Type: RegionROM, Bytes: 100}},
	}); err == nil {
		t.Fatal("unaligned region accepted")
	}
	// Failed creation must not leak anything.
	vm := createRegionVM(t, h)
	if got := len(vm.Regions()); got != 3 {
		t.Fatalf("Regions() = %d", got)
	}
	if _, err := vm.RegionGPA("nope"); err == nil {
		t.Error("unknown region name accepted")
	}
	if _, err := vm.RegionPages("nope"); err == nil {
		t.Error("unknown region name accepted")
	}
	nodeID := vm.Nodes()[0].ID
	a, err := h.Allocator(nodeID)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.DestroyVM("regions"); err != nil {
		t.Fatal(err)
	}
	if a.FreeBytes() != a.TotalBytes() {
		t.Errorf("guest node not fully freed after destroy: %d of %d", a.FreeBytes(), a.TotalBytes())
	}
}

func TestROMWritesTrapAndAreEmulated(t *testing.T) {
	// §5.1: ROM writes are mediated — they raise EPT violations, exit
	// into the hypervisor, and are emulated there; reads stay unmediated.
	h := bootSiloz(t)
	vm := createRegionVM(t, h)
	romGPA, err := vm.RegionGPA("bios")
	if err != nil {
		t.Fatal(err)
	}
	before := vm.exits
	payload := []byte("flash update")
	if err := vm.WriteGuest(romGPA+16, payload); err != nil {
		t.Fatalf("emulated ROM write failed: %v", err)
	}
	if vm.exits <= before {
		t.Error("ROM write did not exit into the hypervisor")
	}
	got := make([]byte, len(payload))
	exitsBeforeRead := vm.exits
	if err := vm.ReadGuest(romGPA+16, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Error("emulated ROM write not visible")
	}
	if vm.exits != exitsBeforeRead {
		t.Error("ROM read exited; reads must be unmediated (§5.1)")
	}
	// RAM writes never exit.
	exits := vm.exits
	if err := vm.WriteGuest(0, payload); err != nil {
		t.Fatal(err)
	}
	if vm.exits != exits {
		t.Error("RAM write exited")
	}
	// MMIO accesses always exit.
	vgaGPA, err := vm.RegionGPA("vga")
	if err != nil {
		t.Fatal(err)
	}
	exits = vm.exits
	if err := vm.ReadGuest(vgaGPA, got); err != nil {
		t.Fatal(err)
	}
	if vm.exits <= exits {
		t.Error("MMIO read did not exit")
	}
}
