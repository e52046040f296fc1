package guest

import (
	"errors"
	"testing"

	"repro/internal/geometry"
)

// TestGuestHotplugEndToEnd drives a hotplug from inside the guest: the
// kernel onlines the hot-added range at the old top of RAM, the usable-memory
// limit rises, and the new frame range is immediately allocatable and
// mappable.
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

	if err := k.Resize(128 * geometry.MiB); err != nil {
		t.Fatal(err)
	}
	if got := k.LimitBytes(); got != 128*geometry.MiB {
		t.Errorf("limit = %d after hotplug, want 128 MiB", got)
	}
	if got := vm.Spec().MemoryBytes; got != 128*geometry.MiB {
		t.Errorf("VM RAM = %d after hotplug, want 128 MiB", got)
	}

	// The hot-added range is mappable and usable by a guest process.
	gva := uint64(0x4000_0000)
	if err := proc.Map(gva, 64*geometry.MiB); err != nil {
		t.Fatalf("Map into the hot-added range: %v", err)
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

	// Validation: a limit off the 2 MiB grid.
	if err := k.Resize(128*geometry.MiB + geometry.PageSize2M + 1); err == nil {
		t.Error("unaligned hotplug accepted")
	}
	if got := k.LimitBytes(); got != 128*geometry.MiB {
		t.Errorf("limit = %d after a refused hotplug, want 128 MiB", got)
	}
}

// TestGuestHotplugBalloonInterplay: a grow past an inflated balloon
// deflates it and hot-adds the rest in one resize, and the balloon sizes
// itself against the grown RAM afterwards.
func TestGuestHotplugBalloonInterplay(t *testing.T) {
	_, vm, k := bootGuestSized(t, 64*geometry.MiB)
	if err := k.Resize(32 * geometry.MiB); err != nil {
		t.Fatal(err)
	}
	if err := k.Resize(128 * geometry.MiB); err != nil {
		t.Fatalf("hotplug with an inflated balloon: %v", err)
	}
	if got := vm.BalloonedBytes(); got != 0 || vm.Spec().MemoryBytes != 128*geometry.MiB {
		t.Errorf("balloon %d bytes, RAM %d: want a full deflate and 64 MiB hot-added", got, vm.Spec().MemoryBytes)
	}
	// The balloon's top-of-RAM model now covers the hot-added range: an
	// inflate surrenders it first.
	if err := k.Resize(64 * geometry.MiB); err != nil {
		t.Fatal(err)
	}
	if got := k.LimitBytes(); got != 64*geometry.MiB {
		t.Errorf("limit = %d after re-inflate, want 64 MiB", got)
	}
	if got := vm.BalloonedBytes(); got != 64*geometry.MiB {
		t.Errorf("BalloonedBytes = %d, want 64 MiB", got)
	}
}
