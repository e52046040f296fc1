package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/mitigation"
	"repro/internal/numa"
)

// linearNodeOf is the lookup the topology's sorted range table replaced: the
// first node, in ID order, one of whose ranges holds pa.
func linearNodeOf(topo *numa.Topology, pa uint64) (*numa.Node, bool) {
	for _, n := range topo.Nodes() {
		if n.Contains(pa) {
			return n, true
		}
	}
	return nil, false
}

// nodeOfConfigs are the boots the lookup is checked on: Siloz with guard-row
// EPT protection, the baseline with CATT guard bands (the frames the retired
// guardNode map tracked) and the plain baseline.
var nodeOfConfigs = []struct {
	name string
	boot func(Config) (*Hypervisor, error)
}{
	{"siloz-guardrows", func(cfg Config) (*Hypervisor, error) {
		cfg.EPTProtection = ept.GuardRows
		return Boot(cfg, ModeSiloz)
	}},
	{"catt", func(cfg Config) (*Hypervisor, error) {
		cfg.Mitigation = mitigation.Spec{Kind: mitigation.KindCATT, Seed: 42}
		return BootMitigated(cfg)
	}},
	{"baseline", func(cfg Config) (*Hypervisor, error) { return Boot(cfg, ModeBaseline) }},
}

// TestNodeOfMatchesLinearScan: on every shipped geometry, the range table
// answers like the linear scan for every 2 MiB frame of host memory — its
// first byte and its last — and on both sides of every node range's edges.
// Under Siloz some frames are cut by offlined rows (the EPT guard block;
// the evaluation DIMMs' boundary guards), so their two ends disagree.
func TestNodeOfMatchesLinearScan(t *testing.T) {
	snc2, err := geometry.Default().WithSNC(2)
	if err != nil {
		t.Fatal(err)
	}
	geometries := []struct {
		name string
		cfg  Config
	}{
		{"test", testConfig()},
		{"default", Config{Geometry: geometry.Default()}},
		{"snc2", Config{Geometry: snc2}},
	}
	if testing.Short() {
		geometries = geometries[:2]
	}
	cut := 0
	for _, g := range geometries {
		for _, c := range nodeOfConfigs {
			t.Run(g.name+"/"+c.name, func(t *testing.T) {
				h, err := c.boot(g.cfg)
				if err != nil {
					t.Fatal(err)
				}
				topo := h.Topology()
				check := func(pa uint64) (*numa.Node, bool) {
					got, gok := topo.NodeOf(pa)
					want, wok := linearNodeOf(topo, pa)
					if got != want || gok != wok {
						t.Fatalf("NodeOf(%#x) = %v, %v; linear scan %v, %v", pa, got, gok, want, wok)
					}
					return got, gok
				}
				unowned := 0
				for f := uint64(0); f < uint64(h.Memory().Geometry().TotalBytes()); f += geometry.PageSize2M {
					first, ok := check(f)
					if last, _ := check(f + geometry.PageSize2M - 1); last != first {
						cut++
					}
					if !ok {
						unowned++
					}
				}
				for _, n := range topo.Nodes() {
					for _, r := range n.Ranges {
						for _, pa := range []uint64{r.Start - 1, r.Start, r.End - 1, r.End} {
							check(pa)
						}
					}
				}
				if h.Mode() == ModeSiloz && unowned == 0 {
					t.Error("no frame lies in offlined memory")
				}
			})
		}
	}
	if cut == 0 {
		t.Error("no frame is cut by an offlined range")
	}
}

// retiredLedger rebuilds the map from each resident 2 MiB frame to the node
// that supplied it, which VMs kept (as ramNode, and guardNode for CATT guard
// frames) until the range table replaced it. A node's allocator manages
// exactly the node's ranges, so the supplier is the node the linear scan
// finds.
func retiredLedger(vm *VM, frames []uint64) map[uint64]int {
	ledger := make(map[uint64]int)
	for _, hpa := range frames {
		n, _ := linearNodeOf(vm.hv.topo, hpa)
		ledger[hpa] = n.ID
	}
	return ledger
}

// retiredHolds is VM.holds as it read the ledger.
func retiredHolds(vm *VM, ledger map[uint64]int, node int) bool {
	for _, n := range ledger {
		if n == node {
			return true
		}
	}
	return slices.ContainsFunc(vm.regions, func(ri regionInfo) bool { return ri.node == node })
}

// retiredPreviewDrain is VM.previewDrain as it read the ledger.
func retiredPreviewDrain(vm *VM, ledger map[uint64]int, n int) (released []int) {
	left := make(map[int]int)
	for _, node := range ledger {
		left[node]++
	}
	for _, ri := range vm.regions {
		left[ri.node]++
	}
	for _, hpa := range vm.ram[len(vm.ram)-n:] { // an inflate surrenders the top n pages
		left[ledger[hpa]]--
	}
	for _, node := range vm.nodes {
		if left[node.ID] == 0 {
			released = append(released, node.ID)
		}
	}
	return released
}

// checkLedgerReads compares every read that used the retired ledger with
// what the range table gives: OwnsHPA on every frame of host memory, holds
// (vacate's drained filter) on every node, previewDrain at every inflate
// size, and the nodes ramRuns and teardown hand to vacate.
func checkLedgerReads(t *testing.T, vm *VM, step string) {
	t.Helper()
	h := vm.hv
	ledger := retiredLedger(vm, vm.ram)
	for f := uint64(0); f < uint64(h.Memory().Geometry().TotalBytes()); f += geometry.PageSize2M {
		_, owned := ledger[f]
		if got := vm.OwnsHPA(f + 4097); got != owned {
			t.Fatalf("%s: OwnsHPA(%#x) = %v, ledger %v", step, f+4097, got, owned)
		}
	}
	for _, n := range h.topo.Nodes() {
		held := len(vm.drained([]int{n.ID}, vm.ram)) == 0
		if want := retiredHolds(vm, ledger, n.ID); held != want {
			t.Fatalf("%s: holds node %d = %v, ledger %v", step, n.ID, held, want)
		}
	}
	for n := 0; n <= len(vm.ram); n++ {
		if got, want := vm.previewDrain(n), retiredPreviewDrain(vm, ledger, n); !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("%s: previewDrain(%d) = %v, ledger %v", step, n, got, want)
		}
	}
	for _, r := range vm.ramRuns(0) {
		if want := ledger[r.pages[0]]; r.node != want {
			t.Fatalf("%s: ramRuns puts frame %#x on node %d, ledger %d", step, r.pages[0], r.node, want)
		}
	}
	guardNode := retiredLedger(vm, vm.guards)
	for _, pa := range vm.guards {
		if got := h.nodeOf(pa); got != guardNode[pa] {
			t.Fatalf("%s: guard frame %#x on node %d, ledger %d", step, pa, got, guardNode[pa])
		}
	}
}

// checkDirtyLog compares the dirty bitset with a map kept the way the
// retired one was: a round of dirty logging returns exactly the resident
// pages stored to, ascending, whatever the store order.
func checkDirtyLog(t *testing.T, rng *rand.Rand, vm *VM, step string) {
	t.Helper()
	pages := int(vm.Spec().MemoryBytes / geometry.PageSize2M)
	if err := vm.StartDirtyTracking(); err != nil {
		t.Fatal(err)
	}
	dirty := map[uint64]bool{}
	for i := 0; i < 6; i++ {
		p := rng.Intn(pages)
		if p >= len(vm.ram) {
			continue // ballooned
		}
		if err := vm.WriteGuest(uint64(p)*geometry.PageSize2M+uint64(rng.Intn(4096)), []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
		dirty[uint64(p)*geometry.PageSize2M] = true
	}
	var wantDirty []uint64
	for gpa := range dirty {
		wantDirty = append(wantDirty, gpa)
	}
	slices.Sort(wantDirty)
	got, err := vm.TakeDirty()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, wantDirty) {
		t.Fatalf("%s: TakeDirty = %#x, map %#x", step, got, wantDirty)
	}
	if again, err := vm.TakeDirty(); err != nil || len(again) != 0 {
		t.Fatalf("%s: second TakeDirty = %#x, %v; want empty", step, again, err)
	}
	if err := vm.StopDirtyTracking(); err != nil {
		t.Fatal(err)
	}
}

// TestRangeTableMatchesRetiredLedger drives VMs through create, balloon and
// hotplug resizes, cross-socket migrations and defragmenting same-socket
// moves, and after each step compares every read that used the retired
// frame-to-node ledger, and the dirty log, with maps kept as they were. One VM's ROM region sits alone on a node its RAM never reaches,
// so a drain that forgets region pages shows.
func TestRangeTableMatchesRetiredLedger(t *testing.T) {
	for _, c := range nodeOfConfigs {
		t.Run(c.name, func(t *testing.T) {
			h, err := c.boot(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(20261018))
			full := uint64(64 * geometry.MiB) // one guest node's worth: the ROM spills onto a second
			vm, err := h.CreateVM(kvmProc(), VMSpec{
				Name: "v", Socket: 0, MemoryBytes: full, AllowRemote: true,
				Regions: []Region{{Name: "bios", Type: RegionROM, Bytes: 16 * geometry.KiB}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "w", Socket: 1, MemoryBytes: 32 * geometry.MiB}); err != nil {
				t.Fatal(err)
			}
			checkLedgerReads(t, vm, "create")
			checkDirtyLog(t, rng, vm, "create")
			ops := map[string]int{}
			for step := 0; step < 24; step++ {
				var op string
				switch step % 4 {
				case 0:
					op = "balloon"
					_, err = h.ResizeVM("v", vm.Spec().MemoryBytes-uint64(1+rng.Intn(8))*geometry.PageSize2M)
				case 1:
					op = "hotplug"
					_, err = h.ResizeVM("v", vm.Spec().MemoryBytes+uint64(rng.Intn(4))*geometry.PageSize2M)
				case 2:
					op = "cross-socket migrate"
					var dests []int
					if dests, err = h.FreeNodes(1-vm.EPTSocket(), vm.Spec().MemoryBytes+16*geometry.KiB); err == nil {
						_, err = h.MigrateVM(context.Background(), "v", dests, MigrateOptions{})
					}
				case 3:
					op = "defragment"
					var dests []int
					if dests, err = h.FreeNodes(vm.EPTSocket(), vm.Spec().MemoryBytes+16*geometry.KiB); err == nil {
						_, err = h.MigrateVM(context.Background(), "v", dests, MigrateOptions{})
					}
				}
				if err != nil && !errors.Is(err, ErrCapacityExhausted) {
					t.Fatalf("step %d %s: %v", step, op, err)
				}
				if err == nil {
					ops[op]++
				}
				name := fmt.Sprintf("step %d after %s", step, op)
				checkLedgerReads(t, vm, name)
				checkDirtyLog(t, rng, vm, name)
				if bad := h.Audit(); len(bad) != 0 {
					t.Fatalf("%s: audit: %v", name, bad)
				}
			}
			if ops["balloon"] == 0 || ops["hotplug"] == 0 || ops["cross-socket migrate"]+ops["defragment"] == 0 {
				t.Errorf("operations that went through: %v", ops)
			}
		})
	}
}

// TestCommitLayoutAllocatesNoLedger: a migration-shaped commit, where no
// slot keeps its frame, allocates only the TLB generation it publishes —
// nothing per frame, since no frame-to-node ledger is kept.
func TestCommitLayoutAllocatesNoLedger(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "v", Socket: 0, MemoryBytes: 32 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.Allocator(freeGuestNode(t, h, 1).ID)
	if err != nil {
		t.Fatal(err)
	}
	src := vm.ram
	dst, err := a.AllocPages(9, len(src))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := vm.commitLayout(dst, nil); err != nil {
			t.Fatal(err)
		}
		if err := vm.commitLayout(src, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Errorf("two commits: %v allocs, want 2 (one TLB generation each)", allocs)
	}
}
