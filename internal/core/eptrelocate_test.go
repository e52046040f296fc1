package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/ept"
	"repro/internal/geometry"
)

// freeGuestNodes returns unowned guest-reserved nodes on a socket whose
// combined capacity covers bytes — cross-socket migration destinations.
func freeGuestNodes(t *testing.T, h *Hypervisor, socket int, bytes uint64) []int {
	t.Helper()
	ids, err := h.FreeNodes(socket, bytes)
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// eptFreeBytes reads a socket's EPT-node free capacity.
func eptFreeBytes(t *testing.T, h *Hypervisor, socket int) uint64 {
	t.Helper()
	n, err := h.EPTNode(socket)
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.Allocator(n.ID)
	if err != nil {
		t.Fatal(err)
	}
	return a.FreeBytes()
}

func TestMigrateVMRelocatesEPT(t *testing.T) {
	h := bootSiloz(t)
	bootFree0 := eptFreeBytes(t, h, 0)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "mig", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("follows the guest")
	if err := vm.WriteGuest(12345, payload); err != nil {
		t.Fatal(err)
	}
	nPages := len(vm.Tables().Pages())

	dests := freeGuestNodes(t, h, 1, 64*geometry.MiB)
	rep, err := h.MigrateVM(context.Background(), "mig", dests, MigrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EPTRelocatedPages != nPages {
		t.Errorf("EPTRelocatedPages = %d, want %d", rep.EPTRelocatedPages, nPages)
	}
	if rep.EPTReclaimedBytes != uint64(nPages)*geometry.PageSize4K {
		t.Errorf("EPTReclaimedBytes = %d", rep.EPTReclaimedBytes)
	}
	if vm.EPTSocket() != 1 {
		t.Errorf("EPTSocket = %d, want 1", vm.EPTSocket())
	}
	if got := eptFreeBytes(t, h, 0); got != bootFree0 {
		t.Errorf("source socket EPT free = %d, want boot value %d", got, bootFree0)
	}
	dstNode, err := h.EPTNode(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pa := range vm.Tables().Pages() {
		if !dstNode.Contains(pa) {
			t.Errorf("table page %#x outside the destination EPT block", pa)
		}
	}
	buf := make([]byte, len(payload))
	if err := vm.ReadGuest(12345, buf); err != nil || !bytes.Equal(buf, payload) {
		t.Fatalf("payload after migration: %q, %v", buf, err)
	}
	if findings := h.Audit(); len(findings) != 0 {
		t.Fatalf("audit after cross-socket migration: %v", findings)
	}
}

func TestSameSocketMigrationKeepsEPTsHome(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "mig", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	dests := freeGuestNodes(t, h, 0, 64*geometry.MiB)
	rep, err := h.MigrateVM(context.Background(), "mig", dests, MigrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EPTRelocatedPages != 0 || vm.EPTSocket() != 0 {
		t.Errorf("same-socket migration relocated EPTs: %d pages, socket %d",
			rep.EPTRelocatedPages, vm.EPTSocket())
	}
}

// The §7.1 in-block hammering check against the *relocated* block: after a
// cross-socket migration under guard-rows protection, the nearest rows an
// attacker can reach on the destination socket must not flip EPT rows.
func TestRelocatedEPTBlockResistsHammering(t *testing.T) {
	h, err := Boot(denseConfig(ept.GuardRows), ModeSiloz)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "mig", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	dests := freeGuestNodes(t, h, 1, 64*geometry.MiB)
	if _, err := h.MigrateVM(context.Background(), "mig", dests, MigrateOptions{}); err != nil {
		t.Fatal(err)
	}

	before := make(map[uint64]uint64)
	for gpa := uint64(0); gpa < vm.Spec().MemoryBytes; gpa += geometry.PageSize2M {
		hpa, err := vm.TranslateUncached(gpa)
		if err != nil {
			t.Fatal(err)
		}
		before[gpa] = hpa
	}

	mem := h.Memory()
	dstNode, err := h.EPTNode(1)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := mem.Mapper().Decode(dstNode.Ranges[0].Start)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Row != EPTRowGroupOffset {
		t.Fatalf("destination EPT row = %d, want %d", ma.Row, EPTRowGroupOffset)
	}
	// Hammer the closest allocatable rows after the destination block.
	for _, row := range []int{EPTBlockRowGroups, EPTBlockRowGroups + 1} {
		aggr, err := mem.Mapper().Encode(geometry.MediaAddr{Bank: ma.Bank, Row: row, Col: 0})
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.ActivatePhys(aggr, 100000, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range mem.Flips() {
		if f.MediaRow == ma.Row && f.Bank.Socket == 1 {
			t.Errorf("flip reached the relocated EPT row: %v", f)
		}
	}
	for gpa, want := range before {
		hpa, err := vm.TranslateUncached(gpa)
		if err != nil {
			t.Fatalf("translate %#x after hammering: %v", gpa, err)
		}
		if hpa != want {
			t.Fatalf("translation of %#x changed: %#x -> %#x", gpa, want, hpa)
		}
	}
}

// SecureEPT across a relocation: the re-keyed MACs on the destination pages
// must still detect hammered entries.
func TestRelocatedSecureEPTDetectsHammering(t *testing.T) {
	h, err := Boot(denseConfig(ept.SecureEPT), ModeSiloz)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "mig", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	dests := freeGuestNodes(t, h, 1, 64*geometry.MiB)
	if _, err := h.MigrateVM(context.Background(), "mig", dests, MigrateOptions{}); err != nil {
		t.Fatal(err)
	}
	if vm.EPTSocket() != 1 {
		t.Fatalf("EPTSocket = %d, want 1", vm.EPTSocket())
	}
	hammerEPTNeighbours(t, h, vm) // targets the relocated PD's neighbour rows

	sawIntegrityFault := false
	for gpa := uint64(0); gpa < vm.Spec().MemoryBytes; gpa += geometry.PageSize2M {
		if _, err := vm.TranslateUncached(gpa); err != nil {
			sawIntegrityFault = true
			break
		}
	}
	if !sawIntegrityFault {
		t.Fatal("relocated secure EPT never faulted despite hammered table rows")
	}
}

// Regression for the Registry.Shrink failure path: when the source nodes
// cannot be released after commit, the guest must resume on its destination
// frames, and the error must wrap the release failure and carry the findings
// of a system audit run on the failure path.
func TestMigrateShrinkFailureReturnsAudit(t *testing.T) {
	h, err := Boot(testConfig(), ModeSiloz)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "mig", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	srcNode := vm.Nodes()[0].ID
	dests := freeGuestNodes(t, h, 1, 64*geometry.MiB)
	stray, err := h.Allocator(freeGuestNodes(t, h, 0, geometry.PageSize2M)[0])
	if err != nil {
		t.Fatal(err)
	}

	// Force the failure: a guest step yanks the source node out of the
	// control group mid-migration, so the engine's final Shrink of the same
	// node fails with "not in cgroup". It also leaks a page from an unowned
	// guest node, drift only the audit on the failure path can report.
	opt := MigrateOptions{GuestStep: func(round int) error {
		if round != 0 {
			return nil
		}
		if _, err := stray.AllocPages(alloc.Order2M, 1); err != nil {
			return err
		}
		return h.Registry().Shrink("vm:mig", []int{srcNode})
	}}
	rep, err := h.MigrateVM(context.Background(), "mig", dests, opt)
	if err == nil {
		t.Fatal("migration succeeded despite sabotaged source-node release")
	}
	if cause := errors.Unwrap(err); cause == nil || !strings.Contains(cause.Error(), "not in cgroup") ||
		!strings.Contains(err.Error(), "releasing source nodes") {
		t.Errorf("error = %v, want it to wrap the source-node release failure", err)
	}
	if !strings.Contains(err.Error(), "post-failure audit: 1 findings") ||
		!strings.Contains(err.Error(), "allocator reports 2097152 used bytes but VMs hold 0") {
		t.Errorf("error = %v, want the post-failure audit's one finding", err)
	}
	if rep == nil {
		t.Fatal("commit-phase failure must still return the report")
	}
	// The guest survived and runs on destination frames.
	if err := vm.WriteGuest(0, []byte("alive")); err != nil {
		t.Fatalf("guest unusable after shrink failure: %v", err)
	}
	for _, hpa := range vm.RAMPages() {
		if node, ok := h.Topology().NodeOf(hpa); !ok || node.Socket != 1 {
			t.Fatalf("RAM page %#x not on the destination socket", hpa)
		}
	}
}
