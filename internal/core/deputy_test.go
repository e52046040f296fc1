package core

import (
	"errors"
	"testing"

	"repro/internal/geometry"
)

// confusedDeputySpam drives mediated accesses to one MMIO page as fast as
// the hypervisor allows, returning how many the host actually performed and
// how many the rate limiter refused with ErrThrottled.
func confusedDeputySpam(t *testing.T, vm *VM, attempts int) (performed, throttled int) {
	t.Helper()
	gpa, err := vm.RegionGPA("vga")
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte{0xFF}
	for i := 0; i < attempts; i++ {
		err := vm.WriteGuest(gpa, buf)
		switch {
		case err == nil:
			performed++
		case errors.Is(err, ErrThrottled):
			throttled++
		default:
			t.Fatal(err)
		}
	}
	return performed, throttled
}

func deputyVM(t *testing.T, h *Hypervisor) *VM {
	t.Helper()
	vm, err := h.CreateVM(kvmProc(), VMSpec{
		Name: "deputy", Socket: 0, MemoryBytes: geometry.PageSize2M,
		Regions: []Region{{Name: "vga", Type: RegionMMIO, Bytes: geometry.PageSize4K}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

// TestConfusedDeputyThrottled covers the §5.1 argument: exit-mediated
// accesses let the host rate-limit, so a guest cannot trick host software
// into hammering host-reserved rows.
func TestConfusedDeputyThrottled(t *testing.T) {
	cfg := testConfig()
	cfg.Profiles[0].HammerThreshold = 3000
	h, err := Boot(cfg, ModeSiloz)
	if err != nil {
		t.Fatal(err)
	}
	vm := deputyVM(t, h)
	performed, throttled := confusedDeputySpam(t, vm, 50_000)
	if performed > DefaultMediatedAccessLimit {
		t.Fatalf("host performed %d mediated accesses, limit %d", performed, DefaultMediatedAccessLimit)
	}
	if throttled == 0 {
		t.Fatal("limiter never engaged")
	}
	// The hammered host page's rows never cross the threshold: no flips.
	if flips := h.Memory().Flips(); len(flips) != 0 {
		t.Fatalf("confused-deputy hammering flipped %d bits despite rate limiting", len(flips))
	}
}

// TestConfusedDeputyWithoutLimiter demonstrates the threat the limiter
// closes: with rate limiting disabled, exit-driven host accesses hammer the
// mediated page's host-reserved row past the threshold.
func TestConfusedDeputyWithoutLimiter(t *testing.T) {
	cfg := testConfig()
	cfg.Profiles[0].HammerThreshold = 3000
	cfg.Profiles[0].VulnerableRowFraction = 1
	cfg.MediatedAccessLimit = -1
	h, err := Boot(cfg, ModeSiloz)
	if err != nil {
		t.Fatal(err)
	}
	vm := deputyVM(t, h)
	performed, _ := confusedDeputySpam(t, vm, 10_000)
	if performed != 10_000 {
		t.Fatalf("performed %d, want all attempts with limiter off", performed)
	}
	flips := h.Memory().Flips()
	if len(flips) == 0 {
		t.Fatal("unthrottled deputy hammering produced no flips; threat not reproduced")
	}
	// The flips land in host-reserved memory — exactly what Siloz's
	// mediated-page placement plus rate limiting is designed to prevent.
	hostHit := false
	for _, f := range flips {
		pa, err := h.Memory().FlipPhys(f)
		if err != nil {
			t.Fatal(err)
		}
		if !vm.InDomain(pa) {
			hostHit = true
		}
	}
	if !hostHit {
		t.Error("expected flips outside the guest domain (host rows)")
	}
}
