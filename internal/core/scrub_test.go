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
// that node is zero before it re-enters the admission pool, even though
// only the touched-page ledger's entries were explicitly scrubbed.
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
