package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/addr"
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

func TestBootBesideSibling(t *testing.T) {
	// §5.3: the group ranges follow from the BIOS-fixed mapping, so a host
	// of the same box boots on its sibling's mapper, layout and row arena,
	// and behaves as a host that computed its own.
	h1 := bootSiloz(t)
	cfg := testConfig()
	cfg.Sibling = h1
	h2, err := Boot(cfg, ModeSiloz)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Layout() != h1.Layout() || h2.Memory().Mapper() != h1.Memory().Mapper() ||
		h2.Memory().RowStore() != h1.Memory().RowStore() {
		t.Fatal("sibling boot did not share the box's layout, mapper and row arena")
	}
	if h2.Memory() == h1.Memory() || h2.Topology() == h1.Topology() {
		t.Fatal("sibling boot shared its sibling's memory or topology")
	}
	n1, n2 := h1.Topology().Nodes(), h2.Topology().Nodes()
	if len(n2) != len(n1) {
		t.Fatal("sibling boot produced a different topology")
	}
	for i := range n1 {
		if n1[i].ID != n2[i].ID || n1[i].Kind != n2[i].Kind || !slices.Equal(n1[i].Ranges, n2[i].Ranges) {
			t.Fatalf("node %d differs beside the sibling: %+v vs %+v", i, n2[i], n1[i])
		}
	}
	vm, err := h2.CreateVM(kvmProc(), VMSpec{Name: "c", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Hammer(0, 20_000, 0); err != nil {
		t.Fatal(err)
	}
	flips := h2.Memory().Flips()
	if len(flips) == 0 {
		t.Fatal("hammering beside a sibling flipped nothing")
	}
	for _, f := range flips {
		pa, err := h2.Memory().FlipPhys(f)
		if err != nil {
			t.Fatal(err)
		}
		if !vm.InDomain(pa) {
			t.Errorf("flip escaped beside a sibling: %v", f)
		}
	}
	if len(h1.Memory().Flips()) != 0 {
		t.Error("hammering one host flipped its sibling's cells")
	}
	// A sibling of another box is refused, not silently shared.
	other := testConfig()
	other.Geometry = other.Geometry.WithSubarraySize(1024)
	other.Sibling = h1
	if _, err := Boot(other, ModeSiloz); err == nil {
		t.Error("sibling of another geometry accepted")
	}
	other = testConfig()
	other.Profiles[0].Transforms = addr.AllTransforms()
	other.Sibling = h1
	if _, err := Boot(other, ModeSiloz); err == nil {
		t.Error("sibling with other row address transforms accepted")
	}
}
