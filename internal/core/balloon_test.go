package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/geometry"
	"repro/internal/numa"
)

// guestNodeIDs returns the socket's guest-reserved node IDs.
func guestNodeIDs(h *Hypervisor, socket int) []int {
	var ids []int
	for _, n := range h.Topology().NodesOnSocket(socket, numa.GuestReserved) {
		ids = append(ids, n.ID)
	}
	return ids
}

// TestBalloonReleasesNodeForAdmission is the tentpole acceptance scenario:
// a VM inflated far enough to drain a whole subarray-group node returns
// that node to the admission pool, and a pending VM refused for lack of
// capacity is admitted onto it.
func TestBalloonReleasesNodeForAdmission(t *testing.T) {
	h := bootSiloz(t)
	bal, err := h.CreateVM(kvmProc(), VMSpec{Name: "bal", Socket: 0, MemoryBytes: 128 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if len(bal.Nodes()) != 2 {
		t.Fatalf("bal owns %d nodes, want 2", len(bal.Nodes()))
	}
	if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "other", Socket: 0, MemoryBytes: 64 * geometry.MiB}); err != nil {
		t.Fatal(err)
	}
	pending := VMSpec{Name: "pending", Socket: 0, MemoryBytes: 64 * geometry.MiB}
	if _, err := h.CreateVM(kvmProc(), pending); err == nil {
		t.Fatal("pending VM admitted while socket 0 is full — scenario broken")
	}

	// Store to pages in both halves, so the node the balloon drains held
	// data.
	secret := []byte("tenant-bal confidential bytes")
	for _, p := range []int{0, 31, 32, 63} {
		if err := bal.WriteGuest(uint64(p)*geometry.PageSize2M+128, secret); err != nil {
			t.Fatal(err)
		}
	}
	ram := bal.RAMPages()
	surrendered := ram[32:] // highest-GPA half leaves first

	rep, err := h.ResizeVM("bal", 64*geometry.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Action != ResizeInflate || rep.Pages != 32 {
		t.Errorf("resize = %v of %d pages, want an inflate of 32", rep.Action, rep.Pages)
	}
	if len(rep.ReleasedNodes) != 1 {
		t.Fatalf("ReleasedNodes = %v, want exactly one drained node", rep.ReleasedNodes)
	}
	// Every surrendered frame is scrubbed, whatever the guest stored in it.
	if want := uint64(32 * geometry.PageSize2M); rep.ScrubbedBytes != want {
		t.Errorf("ScrubbedBytes = %d, want %d", rep.ScrubbedBytes, want)
	}
	if got := bal.BalloonedBytes(); got != 64*geometry.MiB {
		t.Errorf("BalloonedBytes = %d, want 64 MiB", got)
	}
	if len(bal.Nodes()) != 1 {
		t.Errorf("bal still owns %d nodes, want 1", len(bal.Nodes()))
	}

	// Every surrendered frame is zero at the hardware level.
	buf := make([]byte, geometry.PageSize4K)
	for _, pa := range surrendered {
		if err := h.Memory().ReadPhys(pa, buf); err != nil {
			t.Fatal(err)
		}
		if !allZero(buf) {
			t.Errorf("surrendered frame %#x not scrubbed", pa)
		}
	}
	// The surrendered GPA range is unreachable.
	if err := bal.ReadGuest(40*geometry.PageSize2M, buf); err == nil {
		t.Error("read of ballooned-out GPA succeeded")
	}
	// Kept data survives.
	probe := make([]byte, len(secret))
	if err := bal.ReadGuest(31*geometry.PageSize2M+128, probe); err != nil {
		t.Fatal(err)
	}
	if string(probe) != string(secret) {
		t.Error("kept page lost its data across inflation")
	}

	// The drained node admits the pending VM.
	vm, err := h.CreateVM(kvmProc(), pending)
	if err != nil {
		t.Fatalf("pending VM still refused after balloon released a node: %v", err)
	}
	if owner, _ := h.Registry().OwnerOf(rep.ReleasedNodes[0]); owner != "vm:pending" {
		t.Errorf("released node %d owned by %q, want vm:pending", rep.ReleasedNodes[0], owner)
	}
	if vm.Spec().Socket != 0 {
		t.Error("pending VM not on its home socket")
	}
}

// TestBalloonDeflateReadoptsWithoutOverlap: deflating after another tenant
// took the released node must adopt a different node — the registry's
// exclusive Expand makes overlap impossible — and restored pages are zeroed.
func TestBalloonDeflateReadoptsWithoutOverlap(t *testing.T) {
	h := bootSiloz(t)
	bal, err := h.CreateVM(kvmProc(), VMSpec{Name: "bal", Socket: 0, MemoryBytes: 128 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if err := bal.WriteGuest(40*geometry.PageSize2M, []byte("doomed balloon contents")); err != nil {
		t.Fatal(err)
	}
	rep, err := h.ResizeVM("bal", 64*geometry.MiB)
	if err != nil {
		t.Fatal(err)
	}
	released := rep.ReleasedNodes[0]
	taker, err := h.CreateVM(kvmProc(), VMSpec{Name: "taker", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	hasNode := func(vm *VM, id int) bool {
		for _, n := range vm.Nodes() {
			if n.ID == id {
				return true
			}
		}
		return false
	}
	if !hasNode(taker, released) {
		t.Fatalf("taker did not reuse released node %d — scenario broken", released)
	}

	rep, err = h.ResizeVM("bal", 128*geometry.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Action != ResizeDeflate || rep.Pages != 32 {
		t.Errorf("resize = %v of %d pages, want a deflate of 32", rep.Action, rep.Pages)
	}
	if len(rep.AdoptedNodes) == 0 {
		t.Fatal("deflate adopted no nodes despite its old node being taken")
	}
	if hasNode(bal, released) {
		t.Errorf("deflated VM re-acquired node %d owned by another tenant", released)
	}
	for _, n := range bal.Nodes() {
		if owner, _ := h.Registry().OwnerOf(n.ID); owner != "vm:bal" {
			t.Errorf("node %d in bal's cgroup owned by %q", n.ID, owner)
		}
		if hasNode(taker, n.ID) {
			t.Errorf("node %d in two tenants' domains", n.ID)
		}
	}
	// Restored range is readable again and zero-filled (balloon contents
	// are never preserved).
	buf := make([]byte, geometry.PageSize2M)
	for p := 32; p < 64; p++ {
		if err := bal.ReadGuest(uint64(p)*geometry.PageSize2M, buf); err != nil {
			t.Fatalf("restored page %d unreadable: %v", p, err)
		}
		if !allZero(buf) {
			t.Errorf("restored page %d not zeroed", p)
		}
	}
	if err := bal.WriteGuest(40*geometry.PageSize2M, []byte("fresh")); err != nil {
		t.Errorf("restored page not writable: %v", err)
	}
}

// TestBalloonedVMMigrates: a VM with an inflated balloon live-migrates;
// only resident pages move and the holes stay unmapped at the destination.
func TestBalloonedVMMigrates(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "m", Socket: 0, MemoryBytes: 128 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("survives the move")
	if err := vm.WriteGuest(10*geometry.PageSize2M+7, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ResizeVM("m", 64*geometry.MiB); err != nil {
		t.Fatal(err)
	}
	rep, err := h.MigrateVM(context.Background(), "m", guestNodeIDs(h, 1), MigrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesTotal != 32 {
		t.Errorf("PagesTotal = %d, want 32 resident pages", rep.PagesTotal)
	}
	probe := make([]byte, len(payload))
	if err := vm.ReadGuest(10*geometry.PageSize2M+7, probe); err != nil {
		t.Fatal(err)
	}
	if string(probe) != string(payload) {
		t.Error("resident data diverged across migration")
	}
	if err := vm.ReadGuest(40*geometry.PageSize2M, probe); err == nil {
		t.Error("ballooned hole became readable after migration")
	}
	if got := vm.BalloonedBytes(); got != 64*geometry.MiB {
		t.Errorf("BalloonedBytes = %d after migration, want 64 MiB", got)
	}
}

// TestConcurrentBalloonLifecycle is the property-style race test: VMs on
// both sockets inflate/deflate concurrently with admission churn. After any
// interleaving, no guest node has two owners and every unowned node's
// memory is zero.
func TestConcurrentBalloonLifecycle(t *testing.T) {
	h := bootSiloz(t)
	mk := func(name string, socket int, bytes uint64) *VM {
		t.Helper()
		vm, err := h.CreateVM(kvmProc(), VMSpec{Name: name, Socket: socket, MemoryBytes: bytes,
			MinMemoryBytes: 64 * geometry.MiB})
		if err != nil {
			t.Fatal(err)
		}
		return vm
	}
	mk("c0", 0, 128*geometry.MiB)
	mk("c1", 1, 128*geometry.MiB)

	const iters = 8
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for _, name := range []string{"c0", "c1"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				vm, _ := h.VM(name)
				if err := vm.WriteGuest(20*geometry.PageSize2M, []byte{byte(i + 1)}); err != nil {
					errs <- err
					return
				}
				if _, err := h.ResizeVM(name, 64*geometry.MiB); err != nil {
					errs <- err
					return
				}
				// Deflation can transiently fail when the churn worker
				// holds the last free node; that is a capacity race, not
				// an invariant violation.
				_, _ = h.ResizeVM(name, 128*geometry.MiB)
			}
		}(name)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			name := fmt.Sprintf("churn%d", i)
			vm, err := h.CreateVM(kvmProc(), VMSpec{Name: name, Socket: i % 2, MemoryBytes: 64 * geometry.MiB})
			if err != nil {
				continue // socket transiently full
			}
			if werr := vm.WriteGuest(0, []byte("churn data")); werr != nil {
				errs <- werr
				return
			}
			if derr := h.DestroyVM(name); derr != nil {
				errs <- derr
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Error(err)
		}
	}

	// Invariant 1: no guest node in two tenants' domains.
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
	// Invariant 2: every drained (unowned) guest node is fully free and
	// holds only zeros.
	buf := make([]byte, geometry.PageSize4K)
	for _, n := range h.Topology().NodesOfKind(numa.GuestReserved) {
		if _, owned := h.Registry().OwnerOf(n.ID); owned {
			continue
		}
		a, err := h.Allocator(n.ID)
		if err != nil {
			t.Fatal(err)
		}
		if a.UsedBytes() != 0 {
			t.Errorf("unowned node %d has %d bytes allocated", n.ID, a.UsedBytes())
		}
		for _, r := range n.Ranges {
			for pa := r.Start; pa+geometry.PageSize4K <= r.End; pa += geometry.PageSize2M {
				if err := h.Memory().ReadPhys(pa, buf); err != nil {
					t.Fatal(err)
				}
				if !allZero(buf) {
					t.Fatalf("drained node %d holds non-zero data at %#x", n.ID, pa)
				}
			}
		}
	}
}
