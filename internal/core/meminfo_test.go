package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/geometry"
	"repro/internal/numa"
)

func TestMemInfoSkipsStaticGuestNodes(t *testing.T) {
	// §5.3: a guest-reserved node's free memory statistics do not change
	// after VM boot, so refreshes need not iterate them.
	h := bootSiloz(t)
	if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "v", Socket: 0, MemoryBytes: 64 * geometry.MiB}); err != nil {
		t.Fatal(err)
	}
	first, err := h.RefreshMemInfo()
	if err != nil {
		t.Fatal(err)
	}
	total := len(h.Topology().Nodes())
	if first.Polled != total {
		t.Fatalf("first refresh polled %d, want all %d", first.Polled, total)
	}
	// Nothing changed: nothing to poll.
	second, err := h.RefreshMemInfo()
	if err != nil {
		t.Fatal(err)
	}
	if second.Polled != 0 {
		t.Errorf("idle refresh polled %d nodes, want 0", second.Polled)
	}
	// Host activity only dirties host nodes.
	if _, err := h.AllocHostPages(0, 0, 4); err != nil {
		t.Fatal(err)
	}
	third, err := h.RefreshMemInfo()
	if err != nil {
		t.Fatal(err)
	}
	if third.Polled != 1 {
		t.Errorf("host-activity refresh polled %d nodes, want 1", third.Polled)
	}
	for _, s := range third.Stats {
		if s.Kind == numa.GuestReserved && s.FreeBytes != 0 && s.NodeID == 2 {
			break
		}
	}
	// Stats content is correct and render works.
	info, err := h.RefreshMemInfo()
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Stats) != total {
		t.Fatalf("stats rows = %d", len(info.Stats))
	}
	if !strings.Contains(info.Render(), "nodes polled") {
		t.Error("render malformed")
	}
}

func TestBootWithCachedLayout(t *testing.T) {
	// §5.3: subarray group ranges computed at one boot can be cached and
	// reloaded; a booted system behaves identically either way.
	h1 := bootSiloz(t)
	var buf bytes.Buffer
	if err := h1.Layout().Save(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.CachedLayout = &buf
	h2, err := Boot(cfg, ModeSiloz)
	if err != nil {
		t.Fatal(err)
	}
	if len(h2.Topology().Nodes()) != len(h1.Topology().Nodes()) {
		t.Fatal("cached-layout boot produced a different topology")
	}
	vm, err := h2.CreateVM(kvmProc(), VMSpec{Name: "c", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Hammer(0, 20_000, 0); err != nil {
		t.Fatal(err)
	}
	for _, f := range h2.Memory().Flips() {
		pa, err := h2.Memory().FlipPhys(f)
		if err != nil {
			t.Fatal(err)
		}
		if !vm.InDomain(pa) {
			t.Errorf("flip escaped with cached layout: %v", f)
		}
	}
	// A stale cache (wrong geometry) silently falls back to computation.
	stale := bytes.NewBufferString(`{"geometry":{}}`)
	cfg2 := testConfig()
	cfg2.CachedLayout = stale
	if _, err := Boot(cfg2, ModeSiloz); err != nil {
		t.Fatalf("stale cache should fall back, got %v", err)
	}
}
