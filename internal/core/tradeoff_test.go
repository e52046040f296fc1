package core

import (
	"testing"

	"repro/internal/geometry"
)

// TestSilozDoesNotPreventIntraVMHammering documents the §9 trade-off: Siloz
// provides inter-VM protection only. A tenant can still flip bits inside
// its own subarray groups — in fact subarray co-location can make intra-VM
// hammering easier — which the paper deems acceptable given the relative
// severity of inter-VM exploits.
func TestSilozDoesNotPreventIntraVMHammering(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "selfharm", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Hammer(0, 20_000, 0); err != nil {
		t.Fatal(err)
	}
	flips := h.Memory().Flips()
	if len(flips) == 0 {
		t.Fatal("no intra-VM flips; the §9 trade-off should be observable")
	}
	for _, f := range flips {
		pa, err := h.Memory().FlipPhys(f)
		if err != nil {
			t.Fatal(err)
		}
		if !vm.InDomain(pa) {
			t.Errorf("self-hammering flip left the VM's own domain: %v", f)
		}
	}
}

// TestBootSilozWithSNC verifies §8.1: sub-NUMA clustering halves subarray
// group sizes, enabling finer-grained provisioning, and Siloz boots and
// isolates normally on the clustered topology.
func TestBootSilozWithSNC(t *testing.T) {
	g, err := testGeometry().WithSNC(2)
	if err != nil {
		// test geometry has 1 DIMM/socket; build an SNC-able variant.
		g2 := testGeometry()
		g2.DIMMsPerSocket = 2
		g2.BanksPerRank = 4
		g, err = g2.WithSNC(2)
		if err != nil {
			t.Fatal(err)
		}
	}
	cfg := testConfig()
	cfg.Geometry = g
	h, err := Boot(cfg, ModeSiloz)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Layout().GroupBytes(); got != uint64(g.SubarrayGroupBytes()) {
		t.Errorf("group bytes = %d, want %d", got, g.SubarrayGroupBytes())
	}
	// Groups are half the size of the unclustered groups.
	base := testGeometry()
	base.DIMMsPerSocket = 2
	base.BanksPerRank = 4
	if h.Layout().GroupBytes()*2 != uint64(base.SubarrayGroupBytes()) {
		t.Errorf("SNC group %d not half of %d", h.Layout().GroupBytes(), base.SubarrayGroupBytes())
	}
	// A small VM on a cluster still gets exclusive groups and containment.
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "micro", Socket: 0, MemoryBytes: uint64(h.Layout().GroupBytes())})
	if err != nil {
		t.Fatal(err)
	}
	if len(vm.Nodes()) != 1 {
		t.Errorf("micro VM owns %d nodes, want 1", len(vm.Nodes()))
	}
	if err := vm.Hammer(0, 20_000, 0); err != nil {
		t.Fatal(err)
	}
	for _, f := range h.Memory().Flips() {
		pa, err := h.Memory().FlipPhys(f)
		if err != nil {
			t.Fatal(err)
		}
		if !vm.InDomain(pa) {
			t.Errorf("flip escaped on SNC topology: %v", f)
		}
	}
}

func TestRemoteSpillPlacement(t *testing.T) {
	// §5.2: VMs prefer same-socket subarray groups; with AllowRemote a
	// VM larger than its home socket's free groups spills to the other
	// socket's guest-reserved nodes (paying remote latency, never losing
	// isolation).
	h := bootSiloz(t)
	// Socket 0 has 3 guest nodes of 64 MiB; ask for 4 nodes' worth.
	if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "toolarge", Socket: 0, MemoryBytes: 256 * geometry.MiB}); err == nil {
		t.Fatal("oversized local-only VM accepted")
	}
	vm, err := h.CreateVM(kvmProc(), VMSpec{
		Name: "spill", Socket: 0, MemoryBytes: 256 * geometry.MiB, AllowRemote: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sockets := map[int]int{}
	for _, n := range vm.Nodes() {
		sockets[n.Socket]++
	}
	if sockets[0] != 3 || sockets[1] != 1 {
		t.Fatalf("spill placement = %v, want 3 local + 1 remote", sockets)
	}
	// Isolation still holds across the spill.
	if err := vm.Hammer(0, 20_000, 0); err != nil {
		t.Fatal(err)
	}
	lastGPA := vm.Spec().MemoryBytes - geometry.PageSize2M
	if err := vm.Hammer(lastGPA, 20_000, 0); err != nil {
		t.Fatal(err)
	}
	for _, f := range h.Memory().Flips() {
		pa, err := h.Memory().FlipPhys(f)
		if err != nil {
			t.Fatal(err)
		}
		if !vm.InDomain(pa) {
			t.Errorf("flip escaped the spilled VM's domain: %v", f)
		}
	}
}

func TestBootSilozOnDDR5Server(t *testing.T) {
	// §8.2: Siloz generalizes to DDR5's larger bank counts; groups double
	// and isolation works unchanged.
	cfg := testConfig()
	g := testGeometry()
	g.BanksPerRank = 16 // "DDR5": double the test geometry's banks
	cfg.Geometry = g
	h, err := Boot(cfg, ModeSiloz)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := h.Layout().GroupBytes(), uint64(g.SubarrayGroupBytes()); got != want {
		t.Fatalf("group bytes = %d, want %d", got, want)
	}
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "d5", Socket: 0, MemoryBytes: uint64(g.SubarrayGroupBytes())})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Hammer(0, 20_000, 0); err != nil {
		t.Fatal(err)
	}
	for _, f := range h.Memory().Flips() {
		pa, err := h.Memory().FlipPhys(f)
		if err != nil {
			t.Fatal(err)
		}
		if !vm.InDomain(pa) {
			t.Errorf("flip escaped on the DDR5-like geometry: %v", f)
		}
	}
	if bad := h.Audit(); len(bad) != 0 {
		t.Fatalf("audit: %v", bad)
	}
}

func TestVCPUPinning(t *testing.T) {
	// §5.2/§7: vCPUs are pinned to dedicated logical cores of the VM's
	// socket; pinning is exclusive and released on destroy.
	h := bootSiloz(t)
	a, err := h.CreateVM(kvmProc(), VMSpec{Name: "a", Socket: 0, MemoryBytes: geometry.PageSize2M, VCPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	cores, err := h.PinVCPUs(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(cores) != 2 || cores[0] != 0 || cores[1] != 1 {
		t.Fatalf("cores = %v", cores)
	}
	// Idempotent.
	again, err := h.PinVCPUs(a)
	if err != nil || len(again) != 2 {
		t.Fatalf("re-pin: %v, %v", again, err)
	}
	// Second VM gets the remaining cores; a third cannot fit.
	b, err := h.CreateVM(kvmProc(), VMSpec{Name: "b", Socket: 0, MemoryBytes: geometry.PageSize2M, VCPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.PinVCPUs(b); err != nil {
		t.Fatal(err)
	}
	c, err := h.CreateVM(kvmProc(), VMSpec{Name: "c", Socket: 0, MemoryBytes: geometry.PageSize2M, VCPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.PinVCPUs(c); err == nil {
		t.Fatal("oversubscribed pinning accepted")
	}
	// Cores are released on destroy.
	if err := h.DestroyVM("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.PinVCPUs(c); err != nil {
		t.Fatalf("cores not reusable: %v", err)
	}
}
