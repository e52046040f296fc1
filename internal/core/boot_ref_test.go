package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/addr"
	"repro/internal/dram"
	"repro/internal/geometry"
	"repro/internal/numa"
	"repro/internal/subarray"
)

// retiredNode is one node the retired Siloz boot provisioned.
type retiredNode struct {
	kind   numa.NodeKind
	socket int
	ranges []subarray.Range
}

// retiredIntersect is the retired subarray.Intersect, whose one caller was
// the EPT-block loop below; it coalesces through today's subarray.Coalesce,
// which FuzzRangeAlgebraMatchesRetired holds to the retired one.
func retiredIntersect(a, b []subarray.Range) []subarray.Range {
	var out []subarray.Range
	for _, x := range subarray.Coalesce(a) {
		for _, y := range subarray.Coalesce(b) {
			lo, hi := x.Start, x.End
			if y.Start > lo {
				lo = y.Start
			}
			if y.End < hi {
				hi = y.End
			}
			if lo < hi {
				out = append(out, subarray.Range{Start: lo, End: hi})
			}
		}
	}
	return subarray.Coalesce(out)
}

// retiredEPTBlock is the retired provisionSocket's EPT-block loop: each block
// row offlined on every socket, then intersected with the socket's host group
// to keep this socket's range and drop rows past the group's end.
func retiredEPTBlock(t *testing.T, l *subarray.Layout, socket int) (block, ept, guards []subarray.Range) {
	t.Helper()
	hostGroup := l.Group(socket, 0)
	blockFirst := hostGroup.FirstRow
	var blockRanges, eptRanges, guardRanges []subarray.Range
	for i := 0; i < EPTBlockRowGroups; i++ {
		rows := []int{blockFirst + i}
		rs, err := l.OfflineRangesForRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		// OfflineRangesForRows covers every socket; keep this one's.
		rs = retiredIntersect(rs, hostGroup.Ranges)
		blockRanges = append(blockRanges, rs...)
		if i == EPTRowGroupOffset {
			eptRanges = append(eptRanges, rs...)
		} else {
			guardRanges = append(guardRanges, rs...)
		}
	}
	return subarray.Coalesce(blockRanges), subarray.Coalesce(eptRanges), guardRanges
}

// retiredSilozBoot is the retired bootSiloz and provisionSocket arithmetic
// over a booted layout: the nodes in ID order and the offlined ranges. It
// requires the layout to be built for the union of the installed DIMMs'
// transforms, and resolves each inter-subarray repair through an internal
// mapper of its own DIMM's profile: the retired subarray.RepairOfflineRows,
// inlined and taken per DIMM. It calls today's range algebra, which
// FuzzRangeAlgebraMatchesRetired holds to the retired one.
func retiredSilozBoot(t *testing.T, cfg Config, l *subarray.Layout) ([]retiredNode, []subarray.Range) {
	t.Helper()
	g := l.Geometry()
	var union addr.TransformConfig
	for d := 0; d < g.DIMMsPerSocket; d++ {
		tr := cfg.Profiles[d%len(cfg.Profiles)].Transforms
		union = addr.TransformConfig{Mirroring: union.Mirroring || tr.Mirroring,
			Inversion: union.Inversion || tr.Inversion, Scrambling: union.Scrambling || tr.Scrambling}
	}
	if l.Transforms() != union {
		t.Fatalf("layout built for %+v, the installed DIMMs apply %+v", l.Transforms(), union)
	}
	rowSet := make(map[int]bool)
	for _, r := range l.BoundaryGuardRows() {
		rowSet[r] = true
	}
	if cfg.Repairs != nil {
		for _, r := range cfg.Repairs.InterSubarrayRepairs() {
			im := addr.NewInternalMapper(g, cfg.Profiles[r.Bank.DIMM%len(cfg.Profiles)].Transforms)
			for _, side := range []addr.Side{addr.SideA, addr.SideB} {
				rowSet[im.MediaRow(r.Bank, r.From, side)] = true
			}
		}
	}
	allRows := make([]int, 0, len(rowSet))
	for r := range rowSet {
		allRows = append(allRows, r)
	}
	sort.Ints(allRows)
	offline, err := l.OfflineRangesForRows(allRows)
	if err != nil {
		t.Fatal(err)
	}
	offlined := offline
	var nodes []retiredNode
	for s := 0; s < g.Sockets; s++ {
		block, ept, guards := retiredEPTBlock(t, l, s)
		offlined = append(offlined, guards...)
		var hostRanges []subarray.Range
		for gi := 0; gi < hostGroups; gi++ {
			hostRanges = append(hostRanges, l.Group(s, gi).Ranges...)
		}
		hostRanges = subarray.Subtract(hostRanges, block)
		hostRanges = subarray.Subtract(hostRanges, offline)
		nodes = append(nodes,
			retiredNode{numa.HostReserved, s, hostRanges},
			retiredNode{numa.EPTReserved, s, ept})
		for gi := hostGroups; gi < l.GroupsPerSocket(); gi++ {
			nodes = append(nodes, retiredNode{numa.GuestReserved, s, subarray.Subtract(l.Group(s, gi).Ranges, offline)})
		}
	}
	return nodes, subarray.Coalesce(offlined)
}

// TestBootMatchesRetiredProvisioning boots Siloz and compares every node's
// ranges, the offlined ranges and the EPT nodes with the retired arithmetic:
// on the default server, on an artificial layout with guard rows, and with
// inter-subarray repairs, on boxes whose DIMMs differ too. All but the
// default and the 256-row box, whose 512-row groups end on real subarray
// edges, offline more than the EPT guards.
func TestBootMatchesRetiredProvisioning(t *testing.T) {
	artificial := testGeometry()
	artificial.RowsPerBank = 5120
	artificial.RowsPerSubarray = 640
	guarded := Config{Geometry: artificial, Profiles: []dram.Profile{dram.ProfileF()}}

	repaired := testConfig()
	rt, err := addr.GenerateRepairs(repaired.Geometry, addr.RepairInterSubarray, 0.0015, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	repaired.Repairs = rt
	repairedAll := repaired
	repairedAll.Profiles = []dram.Profile{dram.ProfileF()}

	for _, c := range []struct {
		name    string
		cfg     Config
		hazards bool // guard or repaired rows offlined beside the EPT guards
	}{
		{"default", Config{}, false},
		{"artificial-640", guarded, true},
		{"repairs", repaired, true},
		{"repairs/all-transforms", repairedAll, true},
		{"repairs/mixed-dimms", mixedRepairBox(t).cfg, true},
		{"artificial-640/mixed-dimms", hazardBox("640/mirror-invert+all").cfg, true},
		{"artificial-256", hazardBox("256/all").cfg, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			h, err := Boot(c.cfg, ModeSiloz)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Shutdown()
			if c.name == "artificial-640" && !h.Layout().Artificial() {
				t.Fatal("640-row subarrays under transforms must form artificial groups")
			}
			wantNodes, wantOff := retiredSilozBoot(t, h.cfg, h.Layout())
			nodes := h.Topology().Nodes()
			if len(nodes) != len(wantNodes) {
				t.Fatalf("%d nodes, retired %d", len(nodes), len(wantNodes))
			}
			for i, n := range nodes {
				w := wantNodes[i]
				if n.Kind != w.kind || n.Socket != w.socket || !reflect.DeepEqual(n.Ranges, w.ranges) {
					t.Fatalf("node %d: %v on socket %d with %v, retired %v on socket %d with %v",
						i, n.Kind, n.Socket, n.Ranges, w.kind, w.socket, w.ranges)
				}
			}
			for s := 0; s < h.cfg.Geometry.Sockets; s++ {
				n, err := h.EPTNode(s)
				if err != nil {
					t.Fatal(err)
				}
				if _, ept, _ := retiredEPTBlock(t, h.Layout(), s); !reflect.DeepEqual(n.Ranges, ept) {
					t.Fatalf("socket %d EPT node %v, retired %v", s, n.Ranges, ept)
				}
			}
			off := h.OfflinedRanges()
			if !reflect.DeepEqual(off, wantOff) {
				t.Fatalf("offlined %v, retired %v", off, wantOff)
			}
			var offBytes uint64
			for _, r := range off {
				offBytes += r.Bytes()
			}
			g := h.cfg.Geometry
			guardBytes := uint64(g.Sockets*(EPTBlockRowGroups-1)) * uint64(g.RowGroupBytes())
			if (offBytes > guardBytes) != c.hazards {
				t.Fatalf("offlined %d bytes beside the EPT guards' %d; want hazards offlined: %v", offBytes, guardBytes, c.hazards)
			}
		})
	}
}

// TestEPTBlockMatchesRetired compares the EPT block with the retired loop's,
// on the test server and on one whose 16-row subarray groups are shorter
// than the 32-row block: the block then ends at the host group's last row.
// Boot refuses that server, whose host node the block leaves empty.
func TestEPTBlockMatchesRetired(t *testing.T) {
	short := testGeometry()
	short.RowsPerSubarray = 16
	for _, g := range []geometry.Geometry{testGeometry(), short} {
		m, err := addr.NewSkylakeMapper(g)
		if err != nil {
			t.Fatal(err)
		}
		l, err := subarray.NewLayout(g, m, addr.TransformConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < g.Sockets; s++ {
			block, ept, guards, err := eptBlock(l, s)
			if err != nil {
				t.Fatal(err)
			}
			wantBlock, wantEPT, wantGuards := retiredEPTBlock(t, l, s)
			if !reflect.DeepEqual(block, wantBlock) || !reflect.DeepEqual(ept, wantEPT) ||
				!reflect.DeepEqual(guards, wantGuards) {
				t.Fatalf("%d-row groups, socket %d: block %v ept %v guards %v, retired %v %v %v",
					l.RowsPerGroup(), s, block, ept, guards, wantBlock, wantEPT, wantGuards)
			}
			if rows := min(EPTBlockRowGroups, l.RowsPerGroup()); len(guards) != rows-1 {
				t.Fatalf("%d-row groups: %d guard rows, want %d", l.RowsPerGroup(), len(guards), rows-1)
			}
		}
		cfg := testConfig()
		cfg.Geometry = g
		h, err := Boot(cfg, ModeSiloz)
		if err == nil {
			h.Shutdown()
		}
		if (err != nil) != (l.RowsPerGroup() < EPTBlockRowGroups) {
			t.Fatalf("%d-row groups: Boot error %v", l.RowsPerGroup(), err)
		}
	}
}

// TestBootAllocationBound pins a Siloz boot of the fleet benchmark's host at
// the allocations it makes under the race detector, 260; a plain build makes
// 251, or 252 on the first boot in a process. The per-row layout build and
// EPT block it replaced made 1 018, and allocators that copied each node's
// ranges 270. A boot beside a sibling, which takes the box's layout, mapper
// and row arena, is pinned at 215 the same way; a plain build makes 206.
func TestBootAllocationBound(t *testing.T) {
	const bound, siblingBound = 260, 215
	boot := func(cfg Config) float64 {
		return testing.AllocsPerRun(5, func() {
			h, err := Boot(cfg, ModeSiloz)
			if err != nil {
				t.Fatal(err)
			}
			h.Shutdown()
		})
	}
	if allocs := boot(bootBenchConfig()); allocs > bound {
		t.Fatalf("Boot made %.0f allocations, bound %d", allocs, bound)
	}
	sib, err := Boot(bootBenchConfig(), ModeSiloz)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bootBenchConfig()
	cfg.Sibling = sib
	allocs := boot(cfg)
	if allocs > siblingBound {
		t.Fatalf("Boot beside a sibling made %.0f allocations, bound %d", allocs, siblingBound)
	}
}
