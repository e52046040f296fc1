package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geometry"
)

// TestSoakChurn drives a long randomized sequence of VM creation,
// destruction, I/O and hammering, auditing the system after every step —
// the reproduction's longevity test for the isolation machinery.
func TestSoakChurn(t *testing.T) {
	steps := 120
	if testing.Short() {
		steps = 30
	}
	rng := rand.New(rand.NewSource(2024))
	h := bootSiloz(t)
	groupBytes := h.Layout().GroupBytes()

	live := map[string]*VM{}
	nextID := 0
	for step := 0; step < steps; step++ {
		switch rng.Intn(5) {
		case 0, 1: // create a VM of 1-2 groups on a random socket
			nextID++
			name := fmt.Sprintf("vm%d", nextID)
			spec := VMSpec{
				Name:        name,
				Socket:      rng.Intn(2),
				MemoryBytes: uint64(1+rng.Intn(2)) * groupBytes,
				AllowRemote: rng.Intn(2) == 0,
			}
			if rng.Intn(3) == 0 {
				spec.Regions = []Region{{Name: "rom", Type: RegionROM, Bytes: 64 * geometry.KiB}}
				spec.MediatedBytes = 16 * geometry.KiB
			}
			vm, err := h.CreateVM(kvmProc(), spec)
			if err != nil {
				continue // machine full: acceptable
			}
			live[name] = vm
		case 2: // destroy a random VM
			for name := range live {
				if err := h.DestroyVM(name); err != nil {
					t.Fatalf("step %d: destroy %s: %v", step, name, err)
				}
				delete(live, name)
				break
			}
		case 3: // guest I/O on a random VM
			for _, vm := range live {
				gpa := uint64(rng.Int63n(int64(vm.Spec().MemoryBytes - 4096)))
				data := []byte{byte(step), byte(step >> 8)}
				if err := vm.WriteGuest(gpa, data); err != nil {
					t.Fatalf("step %d: write: %v", step, err)
				}
				buf := make([]byte, len(data))
				if err := vm.ReadGuest(gpa, buf); err != nil {
					t.Fatalf("step %d: read: %v", step, err)
				}
				break
			}
		default: // hammer from a random VM
			for _, vm := range live {
				gpa := uint64(rng.Int63n(int64(vm.Spec().MemoryBytes)))
				gpa &^= uint64(geometry.CacheLineSize - 1)
				if err := vm.Hammer(gpa, 5000+rng.Intn(15000), 0); err != nil {
					// Activation budget exhaustion is fine; refresh.
					h.Memory().Refresh()
				}
				break
			}
		}
		if step%10 == 9 {
			h.Memory().Refresh()
			if bad := h.Audit(); len(bad) != 0 {
				t.Fatalf("step %d: audit failed: %v", step, bad)
			}
			// Containment invariant across all of history: every flip
			// belongs to some VM's domain or to unowned memory — never
			// to a *different* VM than its own group owner. Since VMs
			// churn, assert the weaker but sufficient property that a
			// flip's page owner (if any) equals the group owner.
			for _, f := range h.Memory().Flips() {
				pa, err := h.Memory().FlipPhys(f)
				if err != nil {
					t.Fatal(err)
				}
				owners := 0
				for _, vm := range live {
					if vm.OwnsHPA(pa) && !vm.InDomain(pa) {
						t.Fatalf("step %d: flip in %s's page outside its domain: %v", step, vm.Name(), f)
					}
					if vm.OwnsHPA(pa) {
						owners++
					}
				}
				if owners > 1 {
					t.Fatalf("step %d: flip page owned by %d VMs", step, owners)
				}
			}
			h.Memory().ResetFlips()
		}
	}
	// Final teardown leaves a clean machine.
	h.Shutdown()
	if got := len(h.VMs()); got != 0 {
		t.Fatalf("%d VMs survived shutdown", got)
	}
	if bad := h.Audit(); len(bad) != 0 {
		t.Fatalf("post-shutdown audit failed: %v", bad)
	}
}
