package guest

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
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

	b := k.Balloon()
	if err := b.SetTarget(64 * geometry.MiB); err != nil {
		t.Fatal(err)
	}
	if got := b.TargetBytes(); got != 64*geometry.MiB {
		t.Errorf("TargetBytes = %d, want 64 MiB", got)
	}
	if got := vm.BalloonedBytes(); got != 64*geometry.MiB {
		t.Errorf("hypervisor sees %d ballooned bytes, want 64 MiB", got)
	}
	if pages := b.pages; len(pages) != 32 || pages[0] != 64*geometry.MiB {
		t.Errorf("balloon pages = %d starting %#x, want 32 from 64 MiB", len(pages), pages[0])
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
	if derr := b.SetTarget(0); derr == nil {
		t.Fatal("deflate succeeded with no adoptable node — domains must have overlapped")
	}
	if err := h.DestroyVM("tenant"); err != nil {
		t.Fatal(err)
	}
	_ = tenant
	if err := b.SetTarget(0); err != nil {
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
	if err := k.Balloon().SetTarget(64 * geometry.MiB); err == nil {
		t.Error("inflate over live kernel frames accepted")
	}
	if err := k.Balloon().SetTarget(16 * geometry.MiB); err != nil {
		t.Errorf("inflate below the high-water mark refused: %v", err)
	}
}

func TestGuestBalloonValidation(t *testing.T) {
	_, _, k := bootGuestSized(t, 128*geometry.MiB)
	b := k.Balloon()
	if err := b.SetTarget(geometry.MiB); err == nil {
		t.Error("sub-2MiB balloon target accepted")
	}
	if err := b.SetTarget(256 * geometry.MiB); err == nil {
		t.Error("balloon target beyond guest RAM accepted")
	}
	if err := b.SetTarget(0); err != nil {
		t.Errorf("no-op deflate failed: %v", err)
	}
}
