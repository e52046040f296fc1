package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/geometry"
	"repro/internal/numa"
	"repro/internal/subarray"
)

func TestAuditHealthySystem(t *testing.T) {
	h := bootSiloz(t)
	if bad := h.Audit(); len(bad) != 0 {
		t.Fatalf("fresh boot audit failed: %v", bad)
	}
	// Stress: VMs with regions and devices, hammering, destruction.
	vm := createRegionVM(t, h)
	if _, err := h.AttachDevice(vm, "vf0"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "b", Socket: 1, MemoryBytes: 64 * geometry.MiB}); err != nil {
		t.Fatal(err)
	}
	if err := vm.Hammer(0, 20_000, 0); err != nil {
		t.Fatal(err)
	}
	if bad := h.Audit(); len(bad) != 0 {
		t.Fatalf("stressed audit failed: %v", bad)
	}
	if err := h.DestroyVM("b"); err != nil {
		t.Fatal(err)
	}
	if bad := h.Audit(); len(bad) != 0 {
		t.Fatalf("post-destroy audit failed: %v", bad)
	}
}

func TestAuditBaseline(t *testing.T) {
	h := bootBaseline(t)
	if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "x", Socket: 0, MemoryBytes: 64 * geometry.MiB}); err != nil {
		t.Fatal(err)
	}
	if bad := h.Audit(); len(bad) != 0 {
		t.Fatalf("baseline audit failed: %v", bad)
	}
}

func TestAuditDetectsCorruptedAccounting(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "v", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt state deliberately: hand one of the VM's RAM pages to a
	// second bookkeeping owner by double-freeing it into the node pool.
	nodeID := vm.Nodes()[0].ID
	a, err := h.Allocator(nodeID)
	if err != nil {
		t.Fatal(err)
	}
	pa := vm.RAMPages()[0]
	if err := a.Free(pa, 9); err != nil {
		t.Fatal(err)
	}
	bad := h.Audit()
	want := fmt.Sprintf("guest node %d allocator reports", nodeID)
	if len(bad) == 0 || !strings.HasPrefix(bad[0], want) {
		t.Fatalf("audit missed corrupted allocator accounting: %v", bad)
	}
	// Repair so teardown of other tests is unaffected (re-allocate it).
	if _, err := a.Alloc(9); err != nil {
		t.Fatal(err)
	}
}

// TestAuditDetectsSharedFrame: check 2 names a RAM frame that backs two VMs,
// each holder against the one that held it before, in both modes, at the top
// 2 MiB frame of host memory, and for a frame one VM holds twice.
func TestAuditDetectsSharedFrame(t *testing.T) {
	lastFrame := uint64(testGeometry().TotalBytes()) - geometry.PageSize2M
	type slot struct{ vm, page int } // vms[vm].ram[page] gets the frame
	for _, tc := range []struct {
		name  string
		mode  Mode
		last  bool // the frame is the top one, else VM a's second page
		slots []slot
		want  [][2]string // the holder pairs named, in audit order
	}{
		{"siloz", ModeSiloz, false, []slot{{1, 2}}, [][2]string{{"a", "b"}}},
		{"baseline", ModeBaseline, false, []slot{{1, 2}}, [][2]string{{"a", "b"}}},
		{"siloz/last-frame", ModeSiloz, true, []slot{{0, 1}, {1, 2}}, [][2]string{{"a", "b"}}},
		{"baseline/last-frame", ModeBaseline, true, []slot{{0, 1}, {1, 2}}, [][2]string{{"a", "b"}}},
		{"siloz/three-holders", ModeSiloz, false, []slot{{1, 0}, {2, 3}}, [][2]string{{"a", "b"}, {"b", "c"}}},
		{"siloz/one-vm-twice", ModeSiloz, false, []slot{{0, 3}}, [][2]string{{"a", "a"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, err := Boot(testConfig(), tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			var vms []*VM
			for _, name := range []string{"a", "b", "c"} {
				vm, err := h.CreateVM(kvmProc(), VMSpec{Name: name, Socket: 0, MemoryBytes: 8 * geometry.MiB})
				if err != nil {
					t.Fatal(err)
				}
				vms = append(vms, vm)
			}
			if bad := h.Audit(); len(bad) != 0 {
				t.Fatalf("healthy system fails the audit: %v", bad)
			}
			frame := vms[0].ram[1]
			if tc.last {
				frame = lastFrame
			}
			saved := make([]uint64, len(tc.slots))
			for i, s := range tc.slots {
				saved[i], vms[s.vm].ram[s.page] = vms[s.vm].ram[s.page], frame
			}
			bad := h.Audit()
			for _, pair := range tc.want {
				want := fmt.Sprintf("RAM page %#x owned by both %q and %q", frame, pair[0], pair[1])
				if !slices.Contains(bad, want) {
					t.Errorf("audit missed %q: %v", want, bad)
				}
			}
			if n := countPrefix(bad, "RAM page "); n != len(tc.want) {
				t.Errorf("audit names %d shared frames, want %d: %v", n, len(tc.want), bad)
			}
			for i, s := range tc.slots {
				vms[s.vm].ram[s.page] = saved[i]
			}
			if bad := h.Audit(); len(bad) != 0 {
				t.Fatalf("repaired system fails the audit: %v", bad)
			}
		})
	}
}

// TestAuditRAMBeyondHostMemory: a RAM frame past the end of host memory has
// no bit in check 2's frame set; the audit names it instead of indexing past
// the set.
func TestAuditRAMBeyondHostMemory(t *testing.T) {
	h := bootBaseline(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "a", Socket: 0, MemoryBytes: 8 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	end := uint64(testGeometry().TotalBytes())
	saved := vm.ram[1]
	vm.ram[1] = end
	want := fmt.Sprintf(`VM "a" RAM page %#x beyond host memory`, end)
	if bad := h.Audit(); !slices.Equal(bad, []string{want}) {
		t.Fatalf("audit = %v, want [%s]", bad, want)
	}
	vm.ram[1] = saved
}

func countPrefix(lines []string, prefix string) int {
	n := 0
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			n++
		}
	}
	return n
}

// TestAuditIsolationDetectsRegistryDrift: a VM whose domain still lists a
// node the registry no longer records as its own is an isolation violation
// — the check only migrate's auditor used to make.
func TestAuditIsolationDetectsRegistryDrift(t *testing.T) {
	h := bootSiloz(t)
	vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "v", Socket: 0, MemoryBytes: 64 * geometry.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if bad := h.Audit(); len(bad) != 0 {
		t.Fatalf("healthy system fails the audit: %v", bad)
	}
	node := vm.Nodes()[0].ID
	if err := h.Registry().Shrink("vm:v", []int{node}); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`node %d in VM "v"'s domain but owned by ""`, node)
	if bad := h.Audit(); !slices.Contains(bad, want) {
		t.Fatalf("audit missed a node owned by nobody in the registry: %v", bad)
	}
	if err := h.Registry().Expand("vm:v", []int{node}); err != nil {
		t.Fatal(err)
	}
	if bad := h.Audit(); len(bad) != 0 {
		t.Fatalf("repaired system fails the audit: %v", bad)
	}
}

// TestAuditOfflinedRangesExactly: an offlined range is neither MiB-aligned
// nor MiB-sized, so a node that reaches into any part of one — here its
// last 4 KiB, which no MiB-stride sample of the range touches — owns
// offlined memory.
func TestAuditOfflinedRangesExactly(t *testing.T) {
	h := bootSiloz(t)
	var hole subarray.Range
	for _, r := range h.OfflinedRanges() {
		if r.Bytes()%geometry.MiB > geometry.PageSize4K {
			hole = r
			break
		}
	}
	if hole.Bytes() == 0 {
		t.Fatal("test config offlines no range with a partial trailing MiB")
	}
	// Grow the node whose memory starts where the hole ends down over its
	// last page.
	var grown *numa.Node
	for _, n := range h.Topology().Nodes() {
		for i := range n.Ranges {
			if n.Ranges[i].Start == hole.End {
				n.Ranges[i].Start -= geometry.PageSize4K
				grown = n
			}
		}
	}
	if grown == nil {
		t.Fatalf("no node range starts at %#x, where offlined %v ends", hole.End, hole)
	}
	want := fmt.Sprintf("offlined pa %#x owned by node %d", hole.End-geometry.PageSize4K, grown.ID)
	if bad := h.Audit(); !slices.Contains(bad, want) {
		t.Fatalf("audit missed node %d reaching into offlined %v: %v", grown.ID, hole, bad)
	}
}

// TestAuditCleanAtEveryAuditPoint: the one invariant set holds wherever an
// audit runs, not only between operations — at every pre-copy round boundary
// of a same-socket and a cross-socket migration whose guest keeps dirtying
// pages (the destination frames are taken but not yet committed: the VM's
// in-flight frames), and after a migration its context cancelled mid-flight.
func TestAuditCleanAtEveryAuditPoint(t *testing.T) {
	migrate := func(t *testing.T, destSocket int, cancelAt int) (rounds int, err error) {
		h := bootSiloz(t)
		vm, err := h.CreateVM(kvmProc(), VMSpec{Name: "m", Socket: 0, MemoryBytes: 32 * geometry.MiB, Regions: []Region{
			{Name: "bios", Type: RegionROM, Bytes: 64 * geometry.KiB},
			{Name: "virtio-net", Type: RegionVirtio, Bytes: 128 * geometry.KiB},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.CreateVM(kvmProc(), VMSpec{Name: "n", Socket: 1, MemoryBytes: 32 * geometry.MiB}); err != nil {
			t.Fatal(err)
		}
		dests, err := h.FreeNodes(destSocket, 32*geometry.MiB)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		_, err = h.MigrateVM(ctx, "m", dests, MigrateOptions{
			StopPages: 1, MaxRounds: 4,
			GuestStep: func(round int) error {
				for p := 0; p < 6-round; p++ {
					if err := vm.WriteGuest(uint64(p)*geometry.PageSize2M, []byte{byte(round + 1)}); err != nil {
						return err
					}
				}
				return nil
			},
			OnRound: func(r MigrateRound) {
				rounds++
				if bad := h.Audit(); len(bad) != 0 {
					t.Errorf("round %d: %v", r.Round, bad)
				}
				if r.Round == cancelAt {
					cancel()
				}
			},
		})
		if bad := h.Audit(); len(bad) != 0 {
			t.Errorf("after the migration (err %v): %v", err, bad)
		}
		return rounds, err
	}
	for _, c := range []struct {
		name       string
		destSocket int
	}{{"same-socket", 0}, {"cross-socket", 1}} {
		t.Run(c.name, func(t *testing.T) {
			rounds, err := migrate(t, c.destSocket, -1)
			if err != nil {
				t.Fatal(err)
			}
			if rounds < 2 {
				t.Errorf("%d pre-copy rounds; the dirtying guest should force at least 2", rounds)
			}
		})
	}
	t.Run("cancelled", func(t *testing.T) {
		if _, err := migrate(t, 1, 0); !errors.Is(err, context.Canceled) {
			t.Fatalf("migration cancelled after round 0: err = %v", err)
		}
	})
}
