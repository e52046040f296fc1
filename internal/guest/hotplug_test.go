package guest

import (
	"errors"
	"testing"

	"repro/internal/geometry"
)

// TestGuestHotplugEndToEnd drives a hotplug from inside the guest: the
// kernel onlines the hot-added bank, the usable-memory limit rises, and the
// new frame range is immediately allocatable and mappable.
func TestGuestHotplugEndToEnd(t *testing.T) {
	_, vm, k := bootGuestSized(t, 64*geometry.MiB)
	proc, err := k.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	// Before the grow: GPAs beyond the boot reservation are out of range.
	if err := proc.Map(0x4000_0000, 64*geometry.MiB); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("pre-grow Map beyond the reservation: err = %v, want ErrOutOfRange", err)
	}
	if got := k.LimitBytes(); got != 64*geometry.MiB {
		t.Fatalf("boot limit = %d, want 64 MiB", got)
	}

	bank, err := k.HotplugBank(64 * geometry.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if bank.Start != 64*geometry.MiB || bank.Bytes != 64*geometry.MiB {
		t.Errorf("bank = %+v, want 64 MiB at the old top of RAM", bank)
	}
	if got := k.LimitBytes(); got != 128*geometry.MiB {
		t.Errorf("limit = %d after hotplug, want 128 MiB", got)
	}
	if got := vm.Spec().MemoryBytes; got != 128*geometry.MiB {
		t.Errorf("VM RAM = %d after hotplug, want 128 MiB", got)
	}

	// The bank is mappable and usable by a guest process.
	gva := uint64(0x4000_0000)
	if err := proc.Map(gva, bank.Start); err != nil {
		t.Fatalf("Map into the hot-added bank: %v", err)
	}
	payload := []byte("lives in hot-added memory")
	if err := proc.Write(gva, payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if err := proc.Read(gva, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Error("hot-added memory lost data")
	}

	// Validation: alignment, and the balloon interlock.
	if _, err := k.HotplugBank(geometry.PageSize2M + 1); err == nil {
		t.Error("unaligned hotplug accepted")
	}
	if _, err := k.HotplugBank(0); err == nil {
		t.Error("zero-byte hotplug accepted")
	}
}

// TestGuestHotplugBalloonInterplay: the balloon refuses to coexist with a
// pending hotplug and sizes itself against the grown RAM afterwards.
func TestGuestHotplugBalloonInterplay(t *testing.T) {
	_, vm, k := bootGuestSized(t, 64*geometry.MiB)
	if err := k.Balloon().SetTarget(32 * geometry.MiB); err != nil {
		t.Fatal(err)
	}
	if _, err := k.HotplugBank(64 * geometry.MiB); err == nil {
		t.Fatal("hotplug with an inflated balloon accepted")
	}
	if err := k.Balloon().SetTarget(0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.HotplugBank(64 * geometry.MiB); err != nil {
		t.Fatal(err)
	}
	// The balloon's top-of-RAM model now covers the hot-added bank: an
	// inflate surrenders the bank first.
	if err := k.Balloon().SetTarget(64 * geometry.MiB); err != nil {
		t.Fatal(err)
	}
	if got := k.LimitBytes(); got != 64*geometry.MiB {
		t.Errorf("limit = %d after re-inflate, want 64 MiB", got)
	}
	if got := vm.BalloonedBytes(); got != 64*geometry.MiB {
		t.Errorf("BalloonedBytes = %d, want 64 MiB", got)
	}
}
