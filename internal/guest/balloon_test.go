package guest

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/numa"
)

// bootGuestSized boots a Siloz guest kernel inside a VM of the given RAM
// size (the default helper's 64 MiB VM occupies a single node, too small to
// demonstrate node release).
func bootGuestSized(t *testing.T, bytes uint64) (*core.Hypervisor, *core.VM, *Kernel) {
	t.Helper()
	h, err := core.Boot(core.Config{
		Geometry:      testGeometry(),
		Profiles:      []dram.Profile{testProfile()},
		EPTProtection: ept.GuardRows,
	}, core.ModeSiloz)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := h.CreateVM(core.Process{KVMPrivileged: true},
		core.VMSpec{Name: "g", Socket: 0, MemoryBytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	return h, vm, NewKernel(vm)
}

// TestGuestBalloonEndToEnd drives the full handshake from inside the guest:
// inflate surrenders the top of guest RAM, the hypervisor releases the
// drained subarray-group node, a new tenant is admitted onto it, and
// deflation re-adopts capacity without touching the tenant's domain.
func TestGuestBalloonEndToEnd(t *testing.T) {
	h, vm, k := bootGuestSized(t, 128*geometry.MiB)
	proc, err := k.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	gva := uint64(0x4000_0000)
	gpa, err := k.allocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.Map(gva, gpa); err != nil {
		t.Fatal(err)
	}
	payload := []byte("guest data below the balloon")
	if err := proc.Write(gva, payload); err != nil {
		t.Fatal(err)
	}

	if err := k.Resize(64 * geometry.MiB); err != nil {
		t.Fatal(err)
	}
	if got := vm.BalloonedBytes(); got != 64*geometry.MiB {
		t.Errorf("hypervisor sees %d ballooned bytes, want 64 MiB", got)
	}
	if got := k.LimitBytes(); got != 64*geometry.MiB {
		t.Errorf("LimitBytes = %d, want the balloon to start at 64 MiB", got)
	}
	if len(vm.Nodes()) != 1 {
		t.Fatalf("VM still owns %d nodes after inflation, want 1", len(vm.Nodes()))
	}
	// The ballooned range is outside the kernel's usable memory now.
	if merr := proc.Map(0x5000_0000, 100*geometry.MiB); !errors.Is(merr, ErrOutOfRange) {
		t.Errorf("Map into the balloon = %v, want ErrOutOfRange", merr)
	}

	// The released node admits a tenant that needed it (the socket's one
	// never-owned free node + the released one = 2 nodes = 128 MiB).
	tenant, err := h.CreateVM(core.Process{KVMPrivileged: true},
		core.VMSpec{Name: "tenant", Socket: 0, MemoryBytes: 128 * geometry.MiB})
	if err != nil {
		t.Fatalf("tenant refused after balloon released a node: %v", err)
	}

	// Deflate: every guest node is now owned by the tenant, so this must
	// fail rather than overlap domains.
	if derr := k.Resize(128 * geometry.MiB); derr == nil {
		t.Fatal("deflate succeeded with no adoptable node — domains must have overlapped")
	}
	if err := h.DestroyVM("tenant"); err != nil {
		t.Fatal(err)
	}
	_ = tenant
	if got := k.LimitBytes(); got != 64*geometry.MiB {
		t.Errorf("LimitBytes = %d after the refused deflate, want 64 MiB", got)
	}
	if err := k.Resize(128 * geometry.MiB); err != nil {
		t.Fatalf("deflate after capacity returned: %v", err)
	}
	if got := vm.BalloonedBytes(); got != 0 {
		t.Errorf("ballooned bytes after deflate = %d", got)
	}
	// Restored memory is usable: map a frame region above the old limit.
	if merr := proc.Map(0x5000_0000, 100*geometry.MiB); merr != nil {
		t.Errorf("Map into restored range failed: %v", merr)
	}
	// Pre-balloon guest data survived the whole cycle.
	probe := make([]byte, len(payload))
	if err := proc.Read(gva, probe); err != nil {
		t.Fatal(err)
	}
	if string(probe) != string(payload) {
		t.Error("guest data corrupted across inflate/deflate cycle")
	}
}

// TestGuestBalloonRefusesLiveFrames: the driver must not surrender memory
// the kernel's frame allocator already handed out.
func TestGuestBalloonRefusesLiveFrames(t *testing.T) {
	_, _, k := bootGuestSized(t, 128*geometry.MiB)
	k.nextFrame = 100 * geometry.MiB // frames in use up to 100 MiB
	if err := k.Resize(64 * geometry.MiB); err == nil {
		t.Error("inflate over live kernel frames accepted")
	}
	if got := k.LimitBytes(); got != 128*geometry.MiB {
		t.Errorf("LimitBytes = %d after the refused inflate, want 128 MiB", got)
	}
	if err := k.Resize(112 * geometry.MiB); err != nil {
		t.Errorf("inflate below the high-water mark refused: %v", err)
	}
}

func TestGuestBalloonValidation(t *testing.T) {
	_, _, k := bootGuestSized(t, 128*geometry.MiB)
	if err := k.Resize(127 * geometry.MiB); err == nil {
		t.Error("limit off the 2 MiB grid accepted")
	}
	if err := k.Resize(0); err == nil {
		t.Error("balloon over all of guest RAM accepted")
	}
	if err := k.Resize(128 * geometry.MiB); err != nil {
		t.Errorf("no-op resize failed: %v", err)
	}
	if got := k.LimitBytes(); got != 128*geometry.MiB {
		t.Errorf("LimitBytes = %d after refused resizes, want 128 MiB", got)
	}
}

// TestGuestBalloonCommitsWhenEPTRelocationFails: an inflate that drains the
// VM's last node on its EPT socket pulls the tables after the guest, and
// when the other socket's EPT pool is exhausted that relocation fails after
// the inflate has committed. The surrendered range is unmapped either way,
// so the kernel must stop treating it as usable.
func TestGuestBalloonCommitsWhenEPTRelocationFails(t *testing.T) {
	h, vm, k := bootGuestSized(t, 128*geometry.MiB)
	// Move the guest onto one node per socket, socket 1's first: the low
	// half of guest RAM lands there and the top half, which the balloon
	// takes, on socket 0, beside the tables.
	var dests []int
	for _, socket := range []int{1, 0} {
		for _, n := range h.Topology().NodesOnSocket(socket, numa.GuestReserved) {
			if _, owned := h.Registry().OwnerOf(n.ID); !owned {
				dests = append(dests, n.ID)
				break
			}
		}
	}
	if _, err := h.MigrateVM(context.Background(), vm.Name(), dests, core.MigrateOptions{}); err != nil {
		t.Fatal(err)
	}
	top, err := vm.Translate(vm.Spec().MemoryBytes - geometry.PageSize2M)
	if err != nil {
		t.Fatal(err)
	}
	if len(vm.Nodes()) != 2 || vm.EPTSocket() != 0 || !socketHolds(h, 0, top) {
		t.Fatalf("VM on %d nodes, tables on socket %d, top page %#x: scenario broken",
			len(vm.Nodes()), vm.EPTSocket(), top)
	}
	eptNode, err := h.EPTNode(1)
	if err != nil {
		t.Fatal(err)
	}
	eptPool, err := h.Allocator(eptNode.ID)
	if err != nil {
		t.Fatal(err)
	}
	var held []uint64
	for {
		pa, err := eptPool.Alloc(0)
		if err != nil {
			break
		}
		held = append(held, pa)
	}

	if err := k.Resize(64 * geometry.MiB); err == nil {
		t.Fatal("inflate succeeded although socket 1's EPT pool is exhausted")
	}
	usable := vm.Spec().MemoryBytes - vm.BalloonedBytes()
	if usable != 64*geometry.MiB || len(vm.Nodes()) != 1 || vm.EPTSocket() != 0 {
		t.Fatalf("usable %d, %d nodes, tables on socket %d: want the inflate committed and the tables left behind",
			usable, len(vm.Nodes()), vm.EPTSocket())
	}
	if got := k.LimitBytes(); got != usable {
		t.Errorf("guest limit = %d, want the VM's usable %d", got, usable)
	}
	for _, pa := range held {
		if err := eptPool.Free(pa, 0); err != nil {
			t.Fatal(err)
		}
	}
	if bad := h.Audit(); len(bad) != 0 {
		t.Errorf("audit: %v", bad)
	}
}

// socketHolds reports whether hpa lies in one of the socket's guest nodes.
func socketHolds(h *core.Hypervisor, socket int, hpa uint64) bool {
	for _, n := range h.Topology().NodesOnSocket(socket, numa.GuestReserved) {
		if n.Contains(hpa) {
			return true
		}
	}
	return false
}
