package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/geometry"
)

// Regression tests for the lifecycle containment gaps the adversarial
// campaigns (internal/attack) exposed. Each test fails on the pre-fix code:
//
//   - Hammer ignored the vCPU pause gate, so activations could land inside
//     stop-the-world windows where frames change owners;
//   - device DMA bypassed the touched ledger and the dirty log, so
//     scrub-before-free and pre-copy never saw device stores;
//   - IOMMU tables were never re-synced across RAM-layout changes and never
//     destroyed at teardown, leaving devices with stale translations into
//     freed (and possibly re-owned) frames.

// TestHammerRespectsPauseGate: a hammer call issued while the VM is paused
// must block until resume — the same quiescence vCPUs and DMA engines get.
// Pre-fix, Hammer translated and activated immediately, so an attacker
// thread could keep activating rows across a balloon/migration
// stop-the-world window using a stale translation.
func TestHammerRespectsPauseGate(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "hg", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	vm.Pause()
	done := make(chan error, 1)
	go func() { done <- vm.Hammer(0, 100, 0) }()
	select {
	case err := <-done:
		vm.Resume()
		t.Fatalf("Hammer completed (%v) while the VM was paused", err)
	case <-time.After(50 * time.Millisecond):
		// Blocked on the gate, as required.
	}
	vm.Resume()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Hammer after resume: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Hammer still blocked after resume")
	}
}

// TestConcurrentHammerResize races hammering threads against balloon-backed
// grow/shrink cycles (run under -race via make race-quick). Translation
// failures on ballooned-out pages are expected; crashes, races, or
// activations landing outside the VM's domain are not.
func TestConcurrentHammerResize(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "hr", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	const hammerers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < hammerers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				gpa := uint64(rng.Intn(32)) * geometry.PageSize2M
				_ = vm.Hammer(gpa, 50, 0) // unmapped pages may refuse; fine
			}
		}(w)
	}
	for i := 0; i < 6; i++ {
		target := uint64(32 * geometry.MiB)
		if i%2 == 1 {
			target = 64 * geometry.MiB
		}
		if _, err := h.ResizeVM("hr", target); err != nil {
			t.Errorf("resize %d -> %d MiB: %v", i, target>>20, err)
		}
	}
	close(stop)
	wg.Wait()
	// Every activation-induced flip must sit inside the VM's own domain.
	for _, f := range h.Memory().Flips() {
		pa, err := h.Memory().FlipPhys(f)
		if err != nil {
			t.Fatal(err)
		}
		if !vm.InDomain(pa) {
			t.Errorf("hammer/resize race let a flip escape the domain: %v", f)
		}
	}
}

// TestDMAWriteMarksScrubLedger: a page only ever written by device DMA must
// still be scrubbed at teardown. Pre-fix, DMAWrite skipped the touched
// ledger, so scrub-before-free considered the frame clean and the next
// tenant could read the device's bytes.
func TestDMAWriteMarksScrubLedger(t *testing.T) {
	h := bootSiloz(t)
	vm, dev := attachTestDevice(t, h)
	poison := bytes.Repeat([]byte{0xDB}, 512)
	gpa := uint64(9) * geometry.PageSize2M
	if err := dev.DMAWrite(gpa, poison); err != nil {
		t.Fatal(err)
	}
	hpa, err := vm.Translate(gpa)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.DestroyVM(vm.Spec().Name); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(poison))
	if err := h.Memory().ReadPhys(hpa, got); err != nil {
		t.Fatal(err)
	}
	if !allZero(got) {
		t.Error("DMA-written frame returned to the pool unscrubbed")
	}
}

// TestMigrationScrubsDMAPoisonedFrame: a frame poisoned by DMA between the
// final pre-copy round and stop-and-copy must (a) reach the destination —
// the dirty log sees device stores — and (b) be scrubbed on the source
// before its node is released. Pre-fix, the DMA was invisible to both the
// dirty log and the source scrub ledger: the destination lost the bytes and
// the source frame went back to the pool still holding them.
func TestMigrationScrubsDMAPoisonedFrame(t *testing.T) {
	h := bootSiloz(t)
	vm, dev := attachTestDevice(t, h)
	name := vm.Spec().Name
	// Touch a low page so round 0 copies something.
	if err := vm.WriteGuest(0, []byte("seed")); err != nil {
		t.Fatal(err)
	}
	const poisonPage = 20 // never touched by the CPU side
	poison := bytes.Repeat([]byte{0xA7}, 1024)
	srcHPA, err := vm.Translate(poisonPage * geometry.PageSize2M)
	if err != nil {
		t.Fatal(err)
	}
	dest := freeGuestNode(t, h, 0)
	injected := false
	h.SetLifecycleProbe(func(e Event) {
		if injected || e.Kind != ProbeMigrateRound {
			return
		}
		injected = true
		// The window the campaign drives: after this round's dirty drain,
		// before stop-and-copy. The device store goes to the source frame;
		// only the dirty log can carry it across.
		if err := dev.DMAWrite(poisonPage*geometry.PageSize2M, poison); err != nil {
			t.Errorf("mid-migration DMA: %v", err)
		}
	})
	_, err = h.MigrateVM(context.Background(), name, []int{dest.ID}, MigrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !injected {
		t.Fatal("no round event fired; test vacuous")
	}
	got := make([]byte, len(poison))
	if err := vm.ReadGuest(poisonPage*geometry.PageSize2M, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, poison) {
		t.Error("DMA store between final round and stop-and-copy lost in transit")
	}
	if err := h.Memory().ReadPhys(srcHPA, got); err != nil {
		t.Fatal(err)
	}
	if !allZero(got) {
		t.Error("source frame freed unscrubbed after mid-migration DMA poison")
	}
}

// TestDeviceTablesFollowMigration: after a migration the device's IOMMU
// mappings must point at the destination frames. Pre-fix they kept the
// source translations, so post-migration DMA wrote into freed frames —
// frames the allocator may already have handed to another tenant.
func TestDeviceTablesFollowMigration(t *testing.T) {
	h := bootSiloz(t)
	vm, dev := attachTestDevice(t, h)
	name := vm.Spec().Name
	srcHPA, err := vm.Translate(0)
	if err != nil {
		t.Fatal(err)
	}
	dest := freeGuestNode(t, h, 0)
	if _, err := h.MigrateVM(context.Background(), name, []int{dest.ID}, MigrateOptions{}); err != nil {
		t.Fatal(err)
	}
	payload := []byte("post-move dma")
	if err := dev.DMAWrite(0, payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if err := vm.ReadGuest(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("post-migration DMA not visible to the guest (stale IOMMU mapping)")
	}
	if err := h.Memory().ReadPhys(srcHPA, got); err != nil {
		t.Fatal(err)
	}
	if !allZero(got) {
		t.Error("post-migration DMA landed in the freed source frame")
	}
	// And DMA hammering activates destination rows, inside the new domain.
	if err := dev.HammerDMA(0, 20_000, 0); err != nil {
		t.Fatal(err)
	}
	for _, f := range h.Memory().Flips() {
		pa, err := h.Memory().FlipPhys(f)
		if err != nil {
			t.Fatal(err)
		}
		if !vm.InDomain(pa) {
			t.Errorf("post-migration DMA hammer flip outside the domain: %v", f)
		}
	}
}

// TestDeviceTablesFollowBalloon: ballooned-out pages must disappear from
// the IOMMU (DMA refused), and reappear after deflate. Pre-fix the device
// could DMA into a surrendered frame after it returned to the free pool.
func TestDeviceTablesFollowBalloon(t *testing.T) {
	h := bootSiloz(t)
	vm, dev := attachTestDevice(t, h)
	name := vm.Spec().Name
	spec := vm.Spec()
	lastGPA := spec.MemoryBytes - geometry.PageSize2M
	if _, err := h.ResizeVM(name, spec.MemoryBytes/2); err != nil {
		t.Fatal(err)
	}
	if err := dev.DMAWrite(lastGPA, []byte{1}); err == nil {
		t.Error("DMA into a ballooned-out page succeeded")
	}
	if _, err := h.ResizeVM(name, spec.MemoryBytes); err != nil {
		t.Fatal(err)
	}
	if err := dev.DMAWrite(lastGPA, []byte("back")); err != nil {
		t.Errorf("DMA after deflate: %v", err)
	}
}

// TestDeviceTablesFollowHotplug: the hot-added range must become
// DMA-reachable (the IOMMU grows with RAM).
func TestDeviceTablesFollowHotplug(t *testing.T) {
	h := bootSiloz(t)
	vm, dev := attachTestDevice(t, h)
	top := vm.Spec().MemoryBytes
	if err := dev.DMAWrite(top, []byte{1}); err == nil {
		t.Fatal("DMA beyond RAM succeeded before hotplug")
	}
	if _, err := h.ResizeVM(vm.Spec().Name, top+64*geometry.MiB); err != nil {
		t.Fatal(err)
	}
	payload := []byte("hot-added dma")
	if err := dev.DMAWrite(top, payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if err := vm.ReadGuest(top, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("DMA into the hot-added range not visible to the guest")
	}
}

// TestTeardownDetachesDevices: destroying a VM must revoke its devices'
// translations before the frames are scrubbed and freed. Pre-fix the
// tables survived teardown and DMA kept flowing into recycled frames.
func TestTeardownDetachesDevices(t *testing.T) {
	h := bootSiloz(t)
	vm, dev := attachTestDevice(t, h)
	if err := h.DestroyVM(vm.Spec().Name); err != nil {
		t.Fatal(err)
	}
	if err := dev.DMAWrite(0, []byte{1}); err == nil {
		t.Error("DMA after VM teardown succeeded")
	}
	if err := dev.HammerDMA(0, 100, 0); err == nil {
		t.Error("DMA hammering after VM teardown succeeded")
	}
}

// TestLifecycleProbesFire pins the one lifecycle hook the campaigns, serve
// and the tests observe: every kind fires exactly where documented, in order,
// on the right VM — balloon inflate fires unmapped-then-drained, a deflate
// nothing, hotplug adopted; every pre-copy round of a MigrateVM and of a
// MoveOut fires one round event whose payload is the report's round; and a
// move fires copied before its commit and committed after it.
func TestLifecycleProbesFire(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "pr", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	var got []Event
	h.SetLifecycleProbe(func(e Event) { got = append(got, e) })
	expect := func(step string, want ...Event) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Errorf("%s fired %v, want %v", step, eventLog(got), eventLog(want))
		}
		got = nil
	}
	rounds := func(rs []MigrateRound) []Event {
		t.Helper()
		if len(rs) < 2 {
			t.Errorf("%d pre-copy rounds; the dirtying guest should force at least 2", len(rs))
		}
		var out []Event
		for _, r := range rs {
			out = append(out, Event{Kind: ProbeMigrateRound, VM: vm, Round: r})
		}
		return out
	}
	dirty := MigrateOptions{StopPages: 1, GuestStep: func(round int) error {
		for p := 0; p < 4-round; p++ {
			if err := vm.WriteGuest(uint64(p)*geometry.PageSize2M, []byte{byte(round + 1)}); err != nil {
				return err
			}
		}
		return nil
	}}

	if _, err := h.ResizeVM("pr", 32*geometry.MiB); err != nil {
		t.Fatal(err)
	}
	expect("inflate", Event{Kind: ProbeBalloonUnmapped, VM: vm}, Event{Kind: ProbeBalloonDrained, VM: vm})
	if _, err := h.ResizeVM("pr", 64*geometry.MiB); err != nil {
		t.Fatal(err)
	}
	expect("deflate")
	if _, err := h.ResizeVM("pr", 128*geometry.MiB); err != nil {
		t.Fatal(err)
	}
	expect("hotplug", Event{Kind: ProbeHotplugAdopted, VM: vm})

	dests, err := h.FreeNodes(1, vm.Spec().MemoryBytes)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.MigrateVM(context.Background(), "pr", dests, dirty)
	if err != nil {
		t.Fatal(err)
	}
	expect("MigrateVM", rounds(rep.Rounds)...)

	twin, err := bootSiloz(t).CreateVM(kvmProc(), VMSpec{Name: "pr", Socket: 0, MemoryBytes: vm.Spec().MemoryBytes})
	if err != nil {
		t.Fatal(err)
	}
	fillPattern(t, vm)              // round 0 of a move copies the pages holding data
	commit := Event{Kind: "commit"} // marks where the caller's commit ran
	var moved *MigrateReport
	if err := h.MoveOut(context.Background(), "pr", twin, dirty, func(rep *MigrateReport) {
		moved = rep
		got = append(got, commit)
	}); err != nil {
		t.Fatal(err)
	}
	expect("MoveOut", append(rounds(moved.Rounds),
		Event{Kind: ProbeMoveCopied, VM: vm}, commit, Event{Kind: ProbeMoveCommitted, VM: vm})...)
}

// TestIdleProbeIsFree: with no probe installed an event costs a nil check
// and nothing else, and clearing the probe allocates nothing — the serving
// loop clears it after every run.
func TestIdleProbeIsFree(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "idle", Socket: 0, MemoryBytes: 4 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		h.SetLifecycleProbe(nil)
		h.probe(Event{Kind: ProbeMigrateRound, VM: vm, Round: MigrateRound{Round: 1}})
	}); n != 0 {
		t.Errorf("an idle event and a clear allocate %.0f objects", n)
	}
}

// eventLog renders events as kind@vm, with the payload of a round event.
func eventLog(events []Event) []string {
	var out []string
	for _, e := range events {
		s := string(e.Kind)
		if e.VM != nil {
			s += "@" + e.VM.Name()
		}
		if e.Kind == ProbeMigrateRound {
			s += fmt.Sprintf("%+v", e.Round)
		}
		out = append(out, s)
	}
	return out
}
