package core

import (
	"errors"
	"testing"

	"repro/internal/geometry"
)

// TestHotplugAdoptsAndScrubs is the tentpole acceptance scenario: a VM grown
// beyond its boot-time reservation adopts a fresh subarray-group node, the
// hot-added range reads all-zero even though a departed tenant dirtied the
// adopted node, and the VM's recorded size and domain both grow.
func TestHotplugAdoptsAndScrubs(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "v", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	// A departed tenant dirties the node the grow will adopt.
	prev, err := h.CreateVM(kvmProc(), VMSpec{Name: "prev", Socket: 0, MemoryBytes: 128 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 64; p += 7 {
		if err := prev.WriteGuest(uint64(p)*geometry.PageSize2M+64, []byte("departed tenant secret")); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.DestroyVM("prev"); err != nil {
		t.Fatal(err)
	}

	rep, err := h.ResizeVM("v", 128*geometry.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Action != ResizeHotplug || rep.Pages != 32 {
		t.Errorf("resize = %v of %d pages, want a hotplug of 32", rep.Action, rep.Pages)
	}
	if vm.Spec().MemoryBytes != 128*geometry.MiB {
		t.Errorf("grown size = %d, want 128 MiB", vm.Spec().MemoryBytes)
	}
	if len(rep.AdoptedNodes) != 1 || len(vm.Nodes()) != 2 {
		t.Fatalf("adopted %v (VM owns %d nodes), want one fresh node", rep.AdoptedNodes, len(vm.Nodes()))
	}
	if rep.ScrubbedBytes != 64*geometry.MiB {
		t.Errorf("ScrubbedBytes = %d, want every hot-added byte (64 MiB)", rep.ScrubbedBytes)
	}
	if owner, _ := h.Registry().OwnerOf(rep.AdoptedNodes[0]); owner != "vm:v" {
		t.Errorf("adopted node %d owned by %q, want vm:v", rep.AdoptedNodes[0], owner)
	}
	// The hot-added range is readable, all-zero, and writable.
	buf := make([]byte, geometry.PageSize2M)
	for p := 32; p < 64; p++ {
		if err := vm.ReadGuest(uint64(p)*geometry.PageSize2M, buf); err != nil {
			t.Fatalf("hot-added page %d unreadable: %v", p, err)
		}
		if !allZero(buf) {
			t.Errorf("hot-added page %d not scrubbed", p)
		}
	}
	if err := vm.WriteGuest(64*geometry.MiB+5, []byte("fresh capacity")); err != nil {
		t.Errorf("hot-added range not writable: %v", err)
	}
	// Beyond the grown range is still out of bounds.
	if err := vm.ReadGuest(128*geometry.MiB, buf[:8]); err == nil {
		t.Error("read beyond the grown RAM succeeded")
	}
}

// TestHotplugRollbackOnExhaustion: when no unowned node can cover the
// growth, the hotplug fails with ErrCapacityExhausted and the VM keeps
// exactly its previous size and node set.
func TestHotplugRollbackOnExhaustion(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "v", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	// The other two home-socket nodes are owned; v may not go remote.
	if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "full", Socket: 0, MemoryBytes: 128 * geometry.MiB}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ResizeVM("v", 128*geometry.MiB); !errors.Is(err, ErrCapacityExhausted) {
		t.Fatalf("over-capacity hotplug: err = %v, want ErrCapacityExhausted", err)
	}
	if vm.Spec().MemoryBytes != 64*geometry.MiB {
		t.Errorf("failed hotplug grew the VM to %d bytes", vm.Spec().MemoryBytes)
	}
	if len(vm.Nodes()) != 1 {
		t.Errorf("failed hotplug left the VM owning %d nodes, want 1", len(vm.Nodes()))
	}
	// The latch was released: the VM still operates normally afterwards.
	if err := vm.WriteGuest(0, []byte("still alive")); err != nil {
		t.Errorf("VM unusable after refused hotplug: %v", err)
	}
	if _, err := h.ResizeVM("v", 128*geometry.MiB); !errors.Is(err, ErrCapacityExhausted) {
		t.Errorf("second refused hotplug: err = %v, want ErrCapacityExhausted (latch leaked?)", err)
	}
}
