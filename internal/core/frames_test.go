package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/addr"
	"repro/internal/alloc"
	"repro/internal/geometry"
	"repro/internal/numa"
)

// hostState is everything a failed lifecycle operation must leave as it
// found it: every allocator's free capacity (bytes and whole huge pages),
// who owns each guest node, each VM's size, balloon, node set and RAM
// layout, what its EPT and its devices' IOMMU tables actually map, and what
// Audit finds (on a healthy host nothing; where a test holds frames outside
// every VM, as spreadDrain does, the conservation findings those make).
type hostState struct {
	FreeBytes map[int]uint64
	Free2M    map[int]int
	Owner     map[int]string
	VMs       map[string]string
	Walks     map[string]string
	Audit     []string
}

// walkLayout translates the first pages RAM pages through one hierarchy; an
// unmapped page reads as hpaNone.
func walkLayout(pages int, translate func(gpa uint64) (uint64, error)) []uint64 {
	out := make([]uint64, pages)
	for p := range out {
		hpa, err := translate(uint64(p) * geometry.PageSize2M)
		if err != nil {
			hpa = hpaNone
		}
		out[p] = hpa
	}
	return out
}

func snapshotHost(h *Hypervisor) hostState {
	s := hostState{map[int]uint64{}, map[int]int{}, map[int]string{}, map[string]string{}, map[string]string{}, h.Audit()}
	for _, n := range h.Topology().Nodes() {
		a := h.allocators[n.ID]
		s.FreeBytes[n.ID] = a.FreeBytes()
		s.Free2M[n.ID] = a.FreePagesAtOrder(alloc.Order2M)
		if owner, ok := h.Registry().OwnerOf(n.ID); ok {
			s.Owner[n.ID] = owner
		}
	}
	for _, vm := range h.VMs() {
		var nodes []int
		for _, n := range vm.Nodes() {
			nodes = append(nodes, n.ID)
		}
		s.VMs[vm.Name()] = fmt.Sprintf("mem=%d ballooned=%d nodes=%v ram=%x",
			vm.Spec().MemoryBytes, vm.BalloonedBytes(), nodes, vm.ram)
		// The walks cover the balloon too: a surrendered page must stay unmapped.
		pages := int(vm.Spec().MemoryBytes / geometry.PageSize2M)
		walks := fmt.Sprintf("ept=%x", walkLayout(pages, vm.TranslateUncached))
		for _, ri := range vm.regions {
			for i := range ri.pages {
				hpa, _ := vm.TranslateUncached(ri.gpa + uint64(i)*geometry.PageSize4K)
				walks += fmt.Sprintf(" %s[%d]=%x", ri.Name, i, hpa)
			}
		}
		for _, d := range vm.devices {
			walks += fmt.Sprintf(" %s=%x", d.name, walkLayout(pages, d.translate))
		}
		s.Walks[vm.Name()] = walks
	}
	return s
}

// spreadDrain holds (never returns) free huge pages of the given nodes so
// that, walking them in order, each keeps at most two and together they
// keep exactly keep: an operation needing more fails at frame keep+1, having
// by then spilled over — and, for unowned nodes, adopted — every node that
// kept any.
func spreadDrain(t *testing.T, h *Hypervisor, nodes []int, keep int) {
	t.Helper()
	for _, id := range nodes {
		a := h.allocators[id]
		leave := min(2, keep, a.FreePagesAtOrder(alloc.Order2M))
		keep -= leave
		for a.FreePagesAtOrder(alloc.Order2M) > leave {
			if _, err := a.Alloc(alloc.Order2M); err != nil {
				t.Fatal(err)
			}
		}
	}
	if keep > 0 {
		t.Fatalf("nodes %v cannot keep %d more pages", nodes, keep)
	}
}

// lifecycleCase is one frame-consuming lifecycle operation on VM "v" of a
// fresh test host (4 groups per socket: one host node and guest nodes
// 2, 3, 4 on socket 0; 7, 8, 9 on socket 1 — see TestBootSilozTopology).
type lifecycleCase struct {
	name string
	// setup builds the pre-operation state and returns the nodes the
	// operation may draw on, in its spill order.
	setup func(t *testing.T, h *Hypervisor) []int
	steps int // frames (and one step per 4 KiB region) the operation takes
	run   func(h *Hypervisor) error
	// spreadExpands: drain the nodes two-pages-each before the Expand
	// injection too, so that the operation adopts several of them.
	spreadExpands bool
}

var errInjected = errors.New("injected failure")

func lifecycleCases() []lifecycleCase {
	guest := func(h *Hypervisor) []int { return append(guestNodeIDs(h, 0), guestNodeIDs(h, 1)...) }
	create := func(t *testing.T, h *Hypervisor, spec VMSpec) *VM {
		t.Helper()
		spec.Name, spec.AllowRemote = "v", true
		vm, err := h.CreateVM(kvmProc(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return vm
	}
	rom := []Region{{Name: "bios", Type: RegionROM, Bytes: 64 * geometry.KiB}}
	return []lifecycleCase{{
		name:  "create",
		setup: func(t *testing.T, h *Hypervisor) []int { return guest(h) },
		steps: 7,
		run: func(h *Hypervisor) error {
			_, err := h.CreateVM(kvmProc(), VMSpec{Name: "v", Socket: 0, AllowRemote: true,
				MemoryBytes: 12 * geometry.MiB, Regions: rom})
			return err
		},
	}, {
		name: "balloon-deflate",
		setup: func(t *testing.T, h *Hypervisor) []int {
			create(t, h, VMSpec{Socket: 0, MemoryBytes: 64 * geometry.MiB})
			if _, err := h.ResizeVM("v", 52*geometry.MiB); err != nil {
				t.Fatal(err)
			}
			return guest(h)
		},
		steps:         6,
		run:           func(h *Hypervisor) error { _, err := h.ResizeVM("v", 64*geometry.MiB); return err },
		spreadExpands: true,
	}, {
		// Takes no frames: only the commit loop below reaches it.
		name: "balloon-inflate",
		setup: func(t *testing.T, h *Hypervisor) []int {
			create(t, h, VMSpec{Socket: 0, MemoryBytes: 64 * geometry.MiB})
			return guest(h)
		},
		run: func(h *Hypervisor) error { _, err := h.ResizeVM("v", 52*geometry.MiB); return err },
	}, {
		name: "hotplug",
		setup: func(t *testing.T, h *Hypervisor) []int {
			create(t, h, VMSpec{Socket: 0, MemoryBytes: 64 * geometry.MiB})
			return guest(h)
		},
		steps:         6,
		run:           func(h *Hypervisor) error { _, err := h.ResizeVM("v", 76*geometry.MiB); return err },
		spreadExpands: true,
	}, {
		// One grow refills the three ballooned pages from the VM's own node
		// and must adopt for the six hot-added ones, in one frame
		// transaction and one commit: a failure anywhere rolls that one
		// transaction back, and no balloon event fires.
		name: "resize-hotplug-with-balloon-remnant",
		setup: func(t *testing.T, h *Hypervisor) []int {
			create(t, h, VMSpec{Socket: 0, MemoryBytes: 64 * geometry.MiB})
			if _, err := h.ResizeVM("v", 58*geometry.MiB); err != nil {
				t.Fatal(err)
			}
			return guest(h)
		},
		steps: 9,
		run:   func(h *Hypervisor) error { _, err := h.ResizeVM("v", 76*geometry.MiB); return err },
	}, {
		name: "migrate-destination",
		setup: func(t *testing.T, h *Hypervisor) []int {
			create(t, h, VMSpec{Socket: 0, MemoryBytes: 12 * geometry.MiB, Regions: rom})
			return guestNodeIDs(h, 1)
		},
		steps: 7,
		run: func(h *Hypervisor) error {
			_, err := h.MigrateVM(context.Background(), "v", guestNodeIDs(h, 1), MigrateOptions{})
			return err
		},
	}}
}

// TestFrameSourcingRollsBackAtEveryStep fails every layout-changing
// lifecycle operation at every point of its frame sourcing — the k-th frame
// (allocators pre-drained so it does not exist) and the k-th control-group
// Expand (the expandHook seam) — and, past the sourcing stage, at every leaf
// edit of its layout commit (the leafHook seam: a migration's region leaves,
// then the EPT's RAM leaves, then an attached passthrough device's IOMMU
// leaves). It requires the host to be exactly as it was: no frame leaked, no
// node left adopted, vm.nodes in step with the registry, EPT and IOMMU walks
// and vm.ram unchanged and in agreement, audit findings unchanged. A failed
// operation fires no balloon event: it never surrendered a page.
func TestFrameSourcingRollsBackAtEveryStep(t *testing.T) {
	check := func(t *testing.T, h *Hypervisor, c lifecycleCase, before hostState) {
		t.Helper()
		err := c.run(h)
		if err == nil {
			t.Fatal("operation succeeded; the injected failure was never reached")
		}
		if after := snapshotHost(h); !reflect.DeepEqual(before, after) {
			t.Errorf("state changed across failed %s (%v):\nbefore %+v\nafter  %+v", c.name, err, before, after)
		}
	}
	for _, c := range lifecycleCases() {
		for k := 1; k <= c.steps; k++ {
			t.Run(fmt.Sprintf("%s/frame-%d", c.name, k), func(t *testing.T) {
				h := bootSiloz(t)
				spreadDrain(t, h, c.setup(t, h), k-1)
				before := snapshotHost(h)
				check(t, h, c, before)
				if !errors.Is(c.run(h), ErrCapacityExhausted) {
					t.Error("a frame shortage is not reported as ErrCapacityExhausted")
				}
			})
		}
		for k := 1; ; k++ {
			h := bootSiloz(t)
			nodes := c.setup(t, h)
			if c.spreadExpands {
				spreadDrain(t, h, nodes, c.steps)
			}
			calls := 0
			h.expandHook = func([]int) error {
				if calls++; calls == k {
					return errInjected
				}
				return nil
			}
			before := snapshotHost(h)
			if err := c.run(h); !errors.Is(err, errInjected) {
				// Fewer than k Expands: the operation must have gone through.
				if err != nil || calls != k-1 {
					t.Errorf("%s with Expand %d failing: err = %v after %d Expands", c.name, k, err, calls)
				}
				if c.spreadExpands && k < 3 {
					t.Errorf("%s made %d Expands; the drain should force at least 2", c.name, k-1)
				}
				break
			}
			t.Run(fmt.Sprintf("%s/expand-%d", c.name, k), func(t *testing.T) {
				h.expandHook = nil
				if after := snapshotHost(h); !reflect.DeepEqual(before, after) {
					t.Errorf("state changed across failed Expand:\nbefore %+v\nafter  %+v", before, after)
				}
			})
		}
		for k := 1; ; k++ {
			h := bootSiloz(t)
			c.setup(t, h)
			if vm, ok := h.VM("v"); ok {
				if _, err := h.AttachDevice(vm, "vf0"); err != nil {
					t.Fatal(err)
				}
			}
			calls := 0
			h.leafHook = func() error {
				if calls++; calls == k {
					return errInjected
				}
				return nil
			}
			var events []EventKind
			h.SetLifecycleProbe(func(e Event) { events = append(events, e.Kind) })
			before := snapshotHost(h)
			if err := c.run(h); !errors.Is(err, errInjected) {
				// Fewer than k leaf edits: the operation must have gone through.
				if err != nil || calls != k-1 {
					t.Errorf("%s with leaf edit %d failing: err = %v after %d edits", c.name, k, err, calls)
				}
				if k < 4 {
					t.Errorf("%s made %d leaf edits; every case moves at least 3 pages", c.name, k-1)
				}
				break
			}
			t.Run(fmt.Sprintf("%s/commit-%d", c.name, k), func(t *testing.T) {
				h.leafHook = nil
				if after := snapshotHost(h); !reflect.DeepEqual(before, after) {
					t.Errorf("state changed across failed commit:\nbefore %+v\nafter  %+v", before, after)
				}
				if slices.Contains(events, ProbeBalloonUnmapped) || slices.Contains(events, ProbeBalloonDrained) {
					t.Errorf("failed %s fired %v", c.name, events)
				}
			})
		}
	}
}

// TestPreviewResizeMatchesResize: on random occupancy, the nodes
// PreviewResize says a resize adopts and releases are the ones the
// following ResizeVM reports, and both refuse the same targets.
func TestPreviewResizeMatchesResize(t *testing.T) {
	rng := rand.New(rand.NewSource(20260930))
	for round := 0; round < 40; round++ {
		h := bootSiloz(t)
		var names []string
		for i := 0; i < 1+rng.Intn(4); i++ {
			spec := VMSpec{
				Name: fmt.Sprintf("vm%d", i), Socket: rng.Intn(2), AllowRemote: rng.Intn(2) == 0,
				MemoryBytes: uint64(1+rng.Intn(40)) * 2 * geometry.MiB,
			}
			if _, err := h.CreateVM(kvmProc(), spec); err == nil {
				names = append(names, spec.Name)
			}
		}
		for step := 0; step < 12 && len(names) > 0; step++ {
			name := names[rng.Intn(len(names))]
			target := uint64(1+rng.Intn(70)) * 2 * geometry.MiB
			plan, perr := h.PreviewResize(name, target)
			rep, rerr := h.ResizeVM(name, target)
			if (perr == nil) != (rerr == nil) {
				t.Fatalf("round %d: %s -> %d MiB: preview err %v, resize err %v", round, name, target>>20, perr, rerr)
			}
			if rerr != nil {
				continue
			}
			if plan.Action != rep.Action || plan.Pages != rep.Pages ||
				!sameIDs(plan.AdoptedNodes, rep.AdoptedNodes) || !sameIDs(plan.ReleasedNodes, rep.ReleasedNodes) {
				t.Fatalf("round %d: %s -> %d MiB: plan %s %d pages adopt %v release %v, resize %s %d pages adopted %v released %v",
					round, name, target>>20, plan.Action, plan.Pages, plan.AdoptedNodes, plan.ReleasedNodes,
					rep.Action, rep.Pages, rep.AdoptedNodes, rep.ReleasedNodes)
			}
		}
		if bad := h.Audit(); len(bad) != 0 {
			t.Fatalf("round %d: audit: %v", round, bad)
		}
	}
}

func sameIDs(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestDeflateRemapFailureReleasesAdoptedNodes pins the rollback of a balloon
// deflate whose EPT remap fails after frame sourcing adopted a node: the
// frames go back and so does the node. (The parent freed the uncommitted
// frames but left the adopted node in the VM's control group.)
func TestDeflateRemapFailureReleasesAdoptedNodes(t *testing.T) {
	// Ballooned pages are 28..31. Poisoning the first fails the remap with
	// nothing mapped yet; poisoning the second, with one leaf to take back.
	for _, poisoned := range []uint64{28, 29} {
		h := bootSiloz(t)
		vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "v", Socket: 0, MemoryBytes: 64 * geometry.MiB})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.ResizeVM("v", 56*geometry.MiB); err != nil {
			t.Fatal(err)
		}
		// The VM's node has no room left, so the deflate adopts the next.
		own := vm.Nodes()[0].ID
		spreadDrain(t, h, []int{own}, 0)
		held, err := h.allocators[own+1].Alloc(alloc.Order2M)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vm.tables.MapRun(poisoned*geometry.PageSize2M, []uint64{held}, geometry.PageSize2M, true); err != nil {
			t.Fatal(err)
		}
		before := snapshotHost(h)
		if _, err := h.ResizeVM("v", 64*geometry.MiB); err == nil {
			t.Fatal("deflate over an already-mapped GPA succeeded")
		}
		if after := snapshotHost(h); !reflect.DeepEqual(before, after) {
			t.Errorf("page %d poisoned: state changed across failed deflate:\nbefore %+v\nafter  %+v", poisoned, before, after)
		}
		if _, err := vm.TranslateUncached(28 * geometry.PageSize2M); poisoned != 28 && err == nil {
			t.Error("the leaf mapped before the failure is still mapped")
		}
	}
}

// TestHotplugDeviceSyncFailureRollsBack pins the rollback of a hotplug whose
// device IOMMU resync fails: the VM keeps its size, layout and node set and
// the device maps nothing of the abandoned range. (The parent returned the
// error after committing the larger size.)
func TestHotplugDeviceSyncFailureRollsBack(t *testing.T) {
	h := bootSiloz(t)
	vm, dev := attachTestDevice(t, h)
	// The IOVA the second hot-added page needs is already taken.
	held, err := h.allocators[vm.Nodes()[0].ID+1].Alloc(alloc.Order2M)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.tables.MapRun(33*geometry.PageSize2M, []uint64{held}, geometry.PageSize2M, true); err != nil {
		t.Fatal(err)
	}
	before := snapshotHost(h)
	if _, err := h.ResizeVM(vm.Name(), 72*geometry.MiB); err == nil {
		t.Fatal("hotplug succeeded over a poisoned IOMMU slot")
	}
	if after := snapshotHost(h); !reflect.DeepEqual(before, after) {
		t.Errorf("state changed across failed hotplug:\nbefore %+v\nafter  %+v", before, after)
	}
	if _, err := dev.translate(32 * geometry.PageSize2M); err == nil {
		t.Error("device still maps the first page of the abandoned range")
	}
	if _, err := vm.TranslateUncached(32 * geometry.PageSize2M); err == nil {
		t.Error("guest still maps the first page of the abandoned range")
	}
}

// TestFreeNodesCountsHugePagesOnRepairedGeometry: boot-time offlining of
// repaired rows (§6) leaves guest nodes whose free bytes overstate the
// whole 2 MiB frames a migration needs. A destination picker that counts
// bytes — what serve, experiments and attack each did — selects too few
// nodes and the migration dies on "destination nodes full"; FreeNodes counts
// frames.
func TestFreeNodesCountsHugePagesOnRepairedGeometry(t *testing.T) {
	g := testGeometry()
	rt := addr.NewRepairTable(g)
	// Repairs scattered over socket 1's first guest subarray group punch
	// sub-huge-page holes into it.
	for i, from := range []int{520, 600, 680, 760, 840, 920, 1000} {
		bank := geometry.BankID{Socket: 1, Rank: i % 2, Bank: i}
		if err := rt.Add(addr.Repair{Bank: bank, From: from, Spare: addr.SpareRow{Anchor: 1800}}); err != nil {
			t.Fatal(err)
		}
	}
	cfg := testConfig()
	cfg.Repairs = rt
	h, err := Boot(cfg, ModeSiloz)
	if err != nil {
		t.Fatal(err)
	}
	first := h.Topology().NodesOnSocket(1, numa.GuestReserved)[0]
	a := h.allocators[first.ID]
	frames := uint64(a.FreePagesAtOrder(alloc.Order2M)) * geometry.PageSize2M
	if frames >= a.FreeBytes() {
		t.Fatalf("repairs punched no sub-huge-page holes into node %d (%d free bytes, %d in frames)",
			first.ID, a.FreeBytes(), frames)
	}
	// A VM that fits the node's bytes but not its frames.
	size := a.FreeBytes() &^ (geometry.PageSize2M - 1)
	if size <= frames {
		t.Fatalf("holes too small to matter: %d bytes free, %d in frames", a.FreeBytes(), frames)
	}
	if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "v", Socket: 0, MemoryBytes: size}); err != nil {
		t.Fatal(err)
	}
	dests, err := h.FreeNodes(1, size)
	if err != nil {
		t.Fatal(err)
	}
	if len(dests) < 2 {
		t.Fatalf("FreeNodes picked %v for %d bytes; node %d alone holds only %d in whole frames", dests, size, first.ID, frames)
	}
	if _, err := h.MigrateVM(context.Background(), "v", dests, MigrateOptions{}); err != nil {
		t.Fatalf("migration onto FreeNodes' pick: %v", err)
	}
	// The byte-counting pick, for the record: that one node, and not enough.
	back, err := h.FreeNodes(0, size)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.MigrateVM(context.Background(), "v", back, MigrateOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.MigrateVM(context.Background(), "v", []int{first.ID}, MigrateOptions{}); !errors.Is(err, ErrCapacityExhausted) {
		t.Errorf("migration onto the byte-sized pick [%d]: err = %v, want ErrCapacityExhausted", first.ID, err)
	}
	if bad := h.Audit(); len(bad) != 0 {
		t.Fatalf("audit: %v", bad)
	}
}

// TestConcurrentGrowVersusMigration races the two ways the frame-sourcing
// path is entered: a resize, which holds Hypervisor.mu while it takes the
// registry and allocator locks, and a live migration, which takes the same
// two without Hypervisor.mu. Both compete for the same unowned nodes, so
// each may lose a node to the other between picking it and adopting it; a
// loser must fail cleanly (the registry's Expand is the arbiter) and leave
// nothing behind.
func TestConcurrentGrowVersusMigration(t *testing.T) {
	h := bootSiloz(t)
	for _, name := range []string{"mover", "grower"} {
		if _, err := h.CreateVM(kvmProc(), VMSpec{Name: name, Socket: 0, AllowRemote: true, MemoryBytes: 64 * geometry.MiB}); err != nil {
			t.Fatal(err)
		}
	}
	const iters = 12
	var wg sync.WaitGroup
	var moved, grown atomic.Int32
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			dests, err := h.FreeNodes((i+1)%2, 64*geometry.MiB)
			if err != nil {
				continue // the grower holds the socket's spare nodes right now
			}
			if _, err := h.MigrateVM(context.Background(), "mover", dests, MigrateOptions{}); err == nil {
				moved.Add(1)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := h.ResizeVM("grower", 192*geometry.MiB); err == nil {
				grown.Add(1)
			} else if !errors.Is(err, ErrCapacityExhausted) && !strings.Contains(err.Error(), "already reserved") {
				t.Errorf("grow: %v", err)
			}
			if _, err := h.ResizeVM("grower", 64*geometry.MiB); err != nil {
				t.Errorf("shrink: %v", err)
			}
		}
	}()
	wg.Wait()
	if moved.Load() == 0 || grown.Load() == 0 {
		t.Errorf("%d migrations and %d grows succeeded; the race never ran both ways", moved.Load(), grown.Load())
	}
	if bad := h.Audit(); len(bad) != 0 {
		t.Fatalf("audit: %v", bad)
	}
}
