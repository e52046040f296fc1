package core

import (
	"testing"

	"repro/internal/geometry"
)

func TestAuditHealthySystem(t *testing.T) {
	h := bootSiloz(t)
	if bad := h.Audit(); len(bad) != 0 {
		t.Fatalf("fresh boot audit failed: %v", bad)
	}
	// Stress: VMs with regions and devices, hammering, destruction.
	vm := createRegionVM(t, h)
	if _, err := h.AttachDevice(vm, "vf0"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "b", Socket: 1, MemoryBytes: 64 * geometry.MiB}); err != nil {
		t.Fatal(err)
	}
	if err := vm.Hammer(0, 20_000, 0); err != nil {
		t.Fatal(err)
	}
	if bad := h.Audit(); len(bad) != 0 {
		t.Fatalf("stressed audit failed: %v", bad)
	}
	if err := h.DestroyVM("b"); err != nil {
		t.Fatal(err)
	}
	if bad := h.Audit(); len(bad) != 0 {
		t.Fatalf("post-destroy audit failed: %v", bad)
	}
}

func TestAuditBaseline(t *testing.T) {
	h := bootBaseline(t)
	if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "x", Socket: 0, MemoryBytes: 64 * geometry.MiB}); err != nil {
		t.Fatal(err)
	}
	if bad := h.Audit(); len(bad) != 0 {
		t.Fatalf("baseline audit failed: %v", bad)
	}
}

func TestAuditDetectsCorruptedAccounting(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "v", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt state deliberately: hand one of the VM's RAM pages to a
	// second bookkeeping owner by double-freeing it into the node pool.
	nodeID := vm.Nodes()[0].ID
	a, err := h.Allocator(nodeID)
	if err != nil {
		t.Fatal(err)
	}
	pa := vm.RAMPages()[0]
	if err := a.Free(pa, 9); err != nil {
		t.Fatal(err)
	}
	bad := h.Audit()
	if len(bad) == 0 {
		t.Fatal("audit missed corrupted allocator accounting")
	}
	// Accounting is the full audit's job only: the isolation subset the
	// migration engine and the fleet run per round stays cheap and silent.
	if iso := h.AuditIsolation(); len(iso) != 0 {
		t.Fatalf("isolation subset reported an accounting fault: %v", iso)
	}
	// Repair so teardown of other tests is unaffected (re-allocate it).
	if _, err := a.Alloc(9); err != nil {
		t.Fatal(err)
	}
}

// TestAuditIsolationDetectsRegistryDrift: a VM whose domain still lists a
// node the registry no longer records as its own is an isolation violation
// — the check only migrate's auditor used to make — and the full audit, a
// superset, reports it too.
func TestAuditIsolationDetectsRegistryDrift(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "v", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if bad := h.AuditIsolation(); len(bad) != 0 {
		t.Fatalf("healthy system fails the isolation audit: %v", bad)
	}
	node := vm.Nodes()[0].ID
	if err := h.Registry().Shrink("vm:v", []int{node}); err != nil {
		t.Fatal(err)
	}
	iso := h.AuditIsolation()
	if len(iso) == 0 {
		t.Fatal("isolation audit missed a node owned by nobody in the registry")
	}
	if full := h.Audit(); len(full) < len(iso) {
		t.Errorf("full audit reports %d violations, fewer than its isolation subset's %d", len(full), len(iso))
	}
	if err := h.Registry().Expand("vm:v", []int{node}); err != nil {
		t.Fatal(err)
	}
	if bad := h.AuditIsolation(); len(bad) != 0 {
		t.Fatalf("repaired system fails the isolation audit: %v", bad)
	}
}
