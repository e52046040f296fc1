package migrate

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/numa"
)

// bootEPTFree snapshots each socket's EPT-node free bytes.
func bootEPTFree(t *testing.T, h *core.Hypervisor) map[int]uint64 {
	t.Helper()
	out := map[int]uint64{}
	for _, n := range h.Topology().NodesOfKind(numa.EPTReserved) {
		a, err := h.Allocator(n.ID)
		if err != nil {
			t.Fatal(err)
		}
		out[n.Socket] = a.FreeBytes()
	}
	return out
}

// migDest picks unowned guest nodes on the target socket covering bytes;
// ok is false when the socket cannot host the VM right now.
func migDest(h *core.Hypervisor, socket int, bytes uint64) ([]int, bool) {
	var ids []int
	var capacity uint64
	for _, n := range h.Topology().NodesOnSocket(socket, numa.GuestReserved) {
		if _, owned := h.Registry().OwnerOf(n.ID); owned {
			continue
		}
		a, err := h.Allocator(n.ID)
		if err != nil {
			return nil, false
		}
		ids = append(ids, n.ID)
		capacity += a.FreeBytes()
		if capacity >= bytes {
			return ids, true
		}
	}
	return nil, false
}

// checkEPTPlacement asserts the relocation invariant: every VM's table
// pages fall inside exactly its current socket's EPT ranges, and each
// socket's EPT pool holds exactly the table pages of the VMs homed there.
func checkEPTPlacement(t *testing.T, h *core.Hypervisor, bootFree map[int]uint64, step string) {
	t.Helper()
	wantUsed := map[int]uint64{} // socket -> bytes VM tables should occupy
	for _, vm := range h.VMs() {
		home, err := h.EPTNode(vm.EPTSocket())
		if err != nil {
			t.Fatal(err)
		}
		for _, pa := range vm.Tables().Pages() {
			if !home.Contains(pa) {
				t.Fatalf("%s: VM %q table page %#x outside socket %d's EPT ranges",
					step, vm.Name(), pa, vm.EPTSocket())
			}
		}
		wantUsed[vm.EPTSocket()] += uint64(len(vm.Tables().Pages())) * geometry.PageSize4K
	}
	for socket, free := range bootFree {
		n, err := h.EPTNode(socket)
		if err != nil {
			t.Fatal(err)
		}
		a, err := h.Allocator(n.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := a.FreeBytes(), free-wantUsed[socket]; got != want {
			t.Fatalf("%s: socket %d EPT free = %d, want %d (boot %d minus %d of resident tables)",
				step, socket, got, want, free, wantUsed[socket])
		}
	}
	if err := AuditIsolation(h); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

// TestEPTRelocationProperty drives random sequences of cross-socket
// migrations and resizes and asserts, after every step, that EPT table
// pages sit in exactly one socket's guard-protected ranges and that vacated
// sockets' EPT pools return to their boot value.
func TestEPTRelocationProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			h := bootSiloz(t)
			bootFree := bootEPTFree(t, h)
			vm := mustCreate(t, h, "prop", 0, 64*geometry.MiB)
			if err := vm.WriteGuest(999, []byte{0xA5}); err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 6; step++ {
				op := rng.Intn(3)
				label := fmt.Sprintf("step %d op %d", step, op)
				switch op {
				case 0: // cross-socket migration (relative to the EPT home)
					target := 1 - vm.EPTSocket()
					bytes := vm.Spec().MemoryBytes
					dests, ok := migDest(h, target, bytes)
					if !ok {
						continue // target socket full right now; property still holds
					}
					if _, err := h.MigrateVM(context.Background(), "prop", dests, core.MigrateOptions{
						GuestStep: func(round int) error {
							return vm.WriteGuest(uint64(round)*geometry.PageSize2M, []byte{byte(round)})
						},
					}); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				case 1: // grow to 128 MiB (hotplug or deflate)
					if vm.Spec().MemoryBytes >= 128*geometry.MiB {
						continue
					}
					if _, err := h.ResizeVM("prop", 128*geometry.MiB); err != nil {
						continue // infeasible under current occupancy; fine
					}
				case 2: // shrink back to 64 MiB (balloon inflate)
					if _, err := h.ResizeVM("prop", 64*geometry.MiB); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				checkEPTPlacement(t, h, bootFree, label)
			}
			// The guest's data survived the whole sequence.
			buf := make([]byte, 1)
			if err := vm.ReadGuest(999, buf); err != nil || buf[0] != 0xA5 {
				t.Fatalf("payload after sequence: %#x, %v", buf, err)
			}
		})
	}
}

func TestDefragmentReclaimsEPT(t *testing.T) {
	h := bootSiloz(t)
	empty := bootEPTFree(t, h)
	for i := 0; i < 3; i++ {
		mustCreate(t, h, fmt.Sprintf("vm%d", i), 0, 64*geometry.MiB)
	}
	before := bootEPTFree(t, h)
	if len(before) != 2 || before[0] == empty[0] || before[1] != empty[1] {
		t.Fatalf("EPT pools after creates on socket 0: free %v, at boot %v", before, empty)
	}

	reps, err := NewEngine(h).Defragment(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) == 0 {
		t.Fatal("defragmentation moved nothing")
	}
	var pages int
	var bytes uint64
	for _, rep := range reps {
		pages += rep.EPTRelocatedPages
		bytes += rep.EPTReclaimedBytes
	}
	if pages == 0 || bytes != uint64(pages)*geometry.PageSize4K {
		t.Fatalf("defragmentation relocated %d EPT pages, reclaimed %d bytes", pages, bytes)
	}
	after := bootEPTFree(t, h)
	if got := after[0] - before[0]; got != bytes {
		t.Errorf("socket 0 EPT pool reclaimed %d bytes, want %d", got, bytes)
	}
	if got := before[1] - after[1]; got != bytes {
		t.Errorf("socket 1 EPT pool took %d bytes, want %d", got, bytes)
	}
}
