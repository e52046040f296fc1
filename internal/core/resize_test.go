package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geometry"
)

// usable returns a VM's current usable RAM as ResizeVM defines it.
func usable(vm *VM) uint64 {
	return vm.Spec().MemoryBytes - vm.BalloonedBytes()
}

// TestResizeFacadeDispatch walks one VM through every facade action:
// shrink (inflate), no-op, grow within the holes (deflate), and grow beyond
// the boot reservation (hotplug).
func TestResizeFacadeDispatch(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "v", Socket: 0, MemoryBytes: 128 * geometry.MiB,
		MinMemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		target uint64
		action ResizeAction
		nodes  int
	}{
		{64 * geometry.MiB, ResizeInflate, 1},  // shrink drains a node
		{64 * geometry.MiB, ResizeNone, 1},     // already there
		{128 * geometry.MiB, ResizeDeflate, 2}, // grow back into the holes
		{192 * geometry.MiB, ResizeHotplug, 3}, // grow beyond the reservation
	}
	for _, s := range steps {
		rep, err := h.ResizeVM("v", s.target)
		if err != nil {
			t.Fatalf("resize to %d MiB: %v", s.target/geometry.MiB, err)
		}
		if rep.Action != s.action {
			t.Errorf("resize to %d MiB dispatched %v, want %v", s.target/geometry.MiB, rep.Action, s.action)
		}
		if got := usable(vm); got != s.target {
			t.Errorf("after resize to %d MiB usable = %d MiB", s.target/geometry.MiB, got/geometry.MiB)
		}
		if len(vm.Nodes()) != s.nodes {
			t.Errorf("after resize to %d MiB VM owns %d nodes, want %d", s.target/geometry.MiB, len(vm.Nodes()), s.nodes)
		}
	}
}

// resizeRow is one input to ResizeVM. checkResizeRows runs each row
// through PreviewResize and ResizeVM and requires both to refuse it or
// both to accept it: planResize is the one validator behind both.
type resizeRow struct {
	what   string
	vm     string
	target uint64
	dirty  bool  // arm v's dirty logging around the row
	is     error // the refusal must wrap it, when set
	refuse bool
}

const refused, accepted = true, false

// checkResizeRows runs rows in order on one host, so the accepted rows
// change the state the later ones see.
func checkResizeRows(t *testing.T, h *Hypervisor, v *VM, rows []resizeRow) {
	t.Helper()
	for _, r := range rows {
		if r.dirty {
			if err := v.StartDirtyTracking(); err != nil {
				t.Fatal(err)
			}
		}
		_, perr := h.PreviewResize(r.vm, r.target)
		_, rerr := h.ResizeVM(r.vm, r.target)
		if r.dirty {
			if err := v.StopDirtyTracking(); err != nil {
				t.Fatal(err)
			}
		}
		if (perr != nil) != r.refuse || (rerr != nil) != r.refuse {
			t.Errorf("%s: preview err %v, resize err %v; want refused %v", r.what, perr, rerr, r.refuse)
			continue
		}
		if r.is != nil && (!errors.Is(perr, r.is) || !errors.Is(rerr, r.is)) {
			t.Errorf("%s: preview err %v, resize err %v; want %v", r.what, perr, rerr, r.is)
		}
		if vm, ok := h.VM(r.vm); ok && !r.refuse && usable(vm) != r.target {
			t.Errorf("%s: usable = %d, want %d", r.what, usable(vm), r.target)
		}
	}
}

// bootResizable boots a host with VM "v": 128 MiB on socket 0, floor 64 MiB.
func bootResizable(t *testing.T) (*Hypervisor, *VM) {
	t.Helper()
	h := bootSiloz(t)
	v, err := h.CreateVM(kvmProc(), VMSpec{Name: "v", Socket: 0, MemoryBytes: 128 * geometry.MiB,
		MinMemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	return h, v
}

// TestBalloonValidation pins every shrink ResizeVM refuses, and that
// PreviewResize refuses the same ones.
func TestBalloonValidation(t *testing.T) {
	h, v := bootResizable(t)
	if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "w", Socket: 1, MemoryBytes: 64 * geometry.MiB}); err != nil {
		t.Fatal(err)
	}
	checkResizeRows(t, h, v, []resizeRow{
		{"unknown VM", "nope", 64 * geometry.MiB, false, ErrVMNotFound, refused},
		{"zero target", "v", 0, false, nil, refused},
		{"unaligned shrink", "v", geometry.PageSize2M + 1, false, nil, refused},
		{"shrink past the MinMemoryBytes floor", "v", 62 * geometry.MiB, false, nil, refused},
		{"shrink with dirty logging armed", "v", 96 * geometry.MiB, true, nil, refused},
		{"shrink to the floor", "v", 64 * geometry.MiB, false, nil, accepted},
		{"shrink to nothing without a floor", "w", 0, false, nil, refused},
		{"shrink to one page without a floor", "w", geometry.PageSize2M, false, nil, accepted},
	})
	// MinMemoryBytes itself is validated at creation.
	if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "x", Socket: 1, MemoryBytes: 64 * geometry.MiB,
		MinMemoryBytes: 128 * geometry.MiB}); err == nil {
		t.Error("MinMemoryBytes above MemoryBytes accepted")
	}
	if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "y", Socket: 1, MemoryBytes: 64 * geometry.MiB,
		MinMemoryBytes: geometry.PageSize2M + 1}); err == nil {
		t.Error("unaligned MinMemoryBytes accepted")
	}
}

// TestHotplugValidation pins every grow ResizeVM refuses, and that
// PreviewResize refuses the same ones.
func TestHotplugValidation(t *testing.T) {
	h, v := bootResizable(t)
	checkResizeRows(t, h, v, []resizeRow{
		{"unknown VM", "nope", 192 * geometry.MiB, false, ErrVMNotFound, refused},
		{"unaligned grow", "v", 130*geometry.MiB + 1, false, nil, refused},
		{"grow past the RAM window end", "v", ROMBase + geometry.PageSize2M, false, nil, refused},
		{"grow past every free node", "v", 512 * geometry.MiB, false, ErrCapacityExhausted, refused},
		{"grow with dirty logging armed", "v", 192 * geometry.MiB, true, nil, refused},
		{"shrink to the floor", "v", 64 * geometry.MiB, false, nil, accepted},
		// An inflated balloon no longer blocks a grow past the
		// reservation: the resize deflates it first.
		{"grow past the reservation while ballooned", "v", 192 * geometry.MiB, false, nil, accepted},
	})
}

// TestResizeHotplugDeflatesFirst: a grow beyond the reservation on a
// ballooned VM refills the balloon and hot-adds the rest in one leg, and
// scrubs only the hot-added pages.
func TestResizeHotplugDeflatesFirst(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "v", Socket: 0, MemoryBytes: 128 * geometry.MiB,
		MinMemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.ResizeVM("v", 64*geometry.MiB); err != nil {
		t.Fatal(err)
	}
	rep, err := h.ResizeVM("v", 192*geometry.MiB)
	if err != nil {
		t.Fatal(err)
	}
	// 32 pages restored into the balloon, 32 hot-added beyond it.
	if rep.Action != ResizeHotplug || rep.Pages != 64 || rep.ScrubbedBytes != 64*geometry.MiB {
		t.Fatalf("resize = %v of %d pages scrubbing %d MiB, want a hotplug moving 64 and scrubbing 64 MiB",
			rep.Action, rep.Pages, rep.ScrubbedBytes/geometry.MiB)
	}
	if vm.BalloonedBytes() != 0 || vm.Spec().MemoryBytes != 192*geometry.MiB {
		t.Errorf("balloon %d MiB, RAM %d MiB: want a full deflate and 64 MiB hot-added",
			vm.BalloonedBytes()/geometry.MiB, vm.Spec().MemoryBytes/geometry.MiB)
	}
	if got := usable(vm); got != 192*geometry.MiB {
		t.Errorf("usable = %d MiB, want 192", got/geometry.MiB)
	}
}

// TestResizeRollbackRestoresBalloon: when a grow past a balloon fails for
// capacity, the caller sees the exact pre-resize state.
func TestResizeRollbackRestoresBalloon(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "v", Socket: 0, MemoryBytes: 128 * geometry.MiB,
		MinMemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.ResizeVM("v", 64*geometry.MiB); err != nil {
		t.Fatal(err)
	}
	// One neighbor takes one of the two free nodes: refilling the balloon
	// could re-adopt the last one, but the hot-added pages then find nothing.
	if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "t", Socket: 0, MemoryBytes: 64 * geometry.MiB}); err != nil {
		t.Fatal(err)
	}
	nodesBefore := len(vm.Nodes())
	if _, err := h.ResizeVM("v", 256*geometry.MiB); !errors.Is(err, ErrCapacityExhausted) {
		t.Fatalf("over-capacity resize: err = %v, want ErrCapacityExhausted", err)
	}
	if got := vm.BalloonedBytes(); got != 64*geometry.MiB {
		t.Errorf("BalloonedBytes = %d MiB after rollback, want 64", got/geometry.MiB)
	}
	if got := usable(vm); got != 64*geometry.MiB {
		t.Errorf("usable = %d MiB after rollback, want 64", got/geometry.MiB)
	}
	if len(vm.Nodes()) != nodesBefore {
		t.Errorf("node set changed across failed resize: %d -> %d", nodesBefore, len(vm.Nodes()))
	}
}

// TestPreviewResize: PreviewResize predicts inflates and grows without
// mutating the VM.
func TestPreviewResize(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "v", Socket: 0, MemoryBytes: 128 * geometry.MiB,
		MinMemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := h.PreviewResize("v", 64*geometry.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Action != ResizeInflate || plan.Pages != 32 || len(plan.ReleasedNodes) != 1 {
		t.Fatalf("plan = %+v, want inflate of 32 pages releasing one node", plan)
	}
	// Grow preview predicts adoption, still without mutating.
	grow, err := h.PreviewResize("v", 192*geometry.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if grow.Action != ResizeHotplug || grow.Pages != 32 || len(grow.AdoptedNodes) != 1 {
		t.Fatalf("grow plan = %+v, want hotplug of 32 pages adopting one node", grow)
	}
	if got := usable(vm); got != 128*geometry.MiB || len(vm.Nodes()) != 2 || vm.BalloonedBytes() != 0 {
		t.Errorf("preview mutated the VM: usable %d, %d nodes, %d ballooned",
			got, len(vm.Nodes()), vm.BalloonedBytes())
	}
	// An infeasible grow previews as ErrCapacityExhausted.
	if _, err := h.PreviewResize("v", 512*geometry.MiB); !errors.Is(err, ErrCapacityExhausted) {
		t.Errorf("infeasible grow preview: err = %v, want ErrCapacityExhausted", err)
	}
}

// TestBalloonRefusedDuringMigration: the balloon and the pre-copy engine
// both rewrite the RAM layout; a shrink arriving mid-migration must be
// refused, not interleaved.
func TestBalloonRefusedDuringMigration(t *testing.T) {
	h := bootSiloz(t)
	if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "m", Socket: 0, MemoryBytes: 64 * geometry.MiB}); err != nil {
		t.Fatal(err)
	}
	var shrinkErr error
	opt := MigrateOptions{GuestStep: func(round int) error {
		if round == 0 {
			_, shrinkErr = h.ResizeVM("m", 62*geometry.MiB)
		}
		return nil
	}}
	if _, err := h.MigrateVM(context.Background(), "m", guestNodeIDs(h, 1)[:1], opt); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(shrinkErr, ErrResizeBusy) {
		t.Errorf("shrink during live migration: err = %v, want ErrResizeBusy", shrinkErr)
	}
}

// TestResizeBusyDuringMigration: the facade shares the per-VM lifecycle
// latch with the pre-copy engine, so a grow arriving mid-migration does
// not interleave with it.
func TestResizeBusyDuringMigration(t *testing.T) {
	h := bootSiloz(t)
	if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "m", Socket: 0, MemoryBytes: 64 * geometry.MiB}); err != nil {
		t.Fatal(err)
	}
	var resizeErr error
	opt := MigrateOptions{GuestStep: func(round int) error {
		if round == 0 {
			_, resizeErr = h.ResizeVM("m", 128*geometry.MiB)
		}
		return nil
	}}
	if _, err := h.MigrateVM(context.Background(), "m", guestNodeIDs(h, 1), opt); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resizeErr, ErrResizeBusy) {
		t.Errorf("resize during live migration: err = %v, want ErrResizeBusy", resizeErr)
	}
}

// TestConcurrentResizeGrowShrink is the resize property test (race-quick):
// random grow/shrink interleavings across tenants contending for the same
// socket's spare node never double-own a node, and every grow→shrink
// round-trip returns the registry to the VM's pre-grow node set.
func TestConcurrentResizeGrowShrink(t *testing.T) {
	h := bootSiloz(t)
	names := []string{"a", "b", "c"}
	sockets := []int{0, 0, 1}
	preGrow := map[string]map[int]bool{}
	for i, name := range names {
		vm, err := h.CreateVM(kvmProc(), VMSpec{Name: name, Socket: sockets[i], MemoryBytes: 64 * geometry.MiB,
			MinMemoryBytes: 64 * geometry.MiB})
		if err != nil {
			t.Fatal(err)
		}
		set := map[int]bool{}
		for _, n := range vm.Nodes() {
			set[n.ID] = true
		}
		preGrow[name] = set
	}

	const iters = 8
	var wg sync.WaitGroup
	errs := make(chan error, len(names)*iters)
	for i, name := range names {
		wg.Add(1)
		go func(name string, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < iters; it++ {
				grow := uint64(128+64*rng.Intn(2)) * geometry.MiB
				if _, err := h.ResizeVM(name, grow); err != nil {
					// Capacity contention with the sibling tenant is a
					// legitimate refusal, not an invariant violation.
					if !errors.Is(err, ErrCapacityExhausted) {
						errs <- fmt.Errorf("grow %q: %w", name, err)
						return
					}
				}
				if _, err := h.ResizeVM(name, 64*geometry.MiB); err != nil {
					errs <- fmt.Errorf("shrink %q: %w", name, err)
					return
				}
			}
		}(name, int64(i+1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Invariant 1: no guest node in two tenants' domains, and the registry
	// agrees with every VM's view.
	seen := map[int]string{}
	for _, vm := range h.VMs() {
		for _, n := range vm.Nodes() {
			if prev, dup := seen[n.ID]; dup {
				t.Errorf("node %d owned by both %q and %q", n.ID, prev, vm.Name())
			}
			seen[n.ID] = vm.Name()
			if owner, _ := h.Registry().OwnerOf(n.ID); owner != "vm:"+vm.Name() {
				t.Errorf("registry owner of node %d is %q, VM is %q", n.ID, owner, vm.Name())
			}
		}
	}
	// Invariant 2: every grow→shrink round-trip ended at 64 MiB usable, so
	// each VM's node set is exactly its pre-grow set.
	for _, name := range names {
		vm, _ := h.VM(name)
		if got := usable(vm); got != 64*geometry.MiB {
			t.Errorf("VM %q usable = %d MiB after round-trips, want 64", name, got/geometry.MiB)
		}
		set := map[int]bool{}
		for _, n := range vm.Nodes() {
			set[n.ID] = true
		}
		if len(set) != len(preGrow[name]) {
			t.Errorf("VM %q owns %d nodes after round-trips, want %d", name, len(set), len(preGrow[name]))
		}
		for id := range preGrow[name] {
			if !set[id] {
				t.Errorf("VM %q lost pre-grow node %d across round-trips", name, id)
			}
		}
	}
}
