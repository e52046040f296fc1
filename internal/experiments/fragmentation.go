package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/migrate"
	"repro/internal/numa"
	"repro/internal/subarray"

	"repro/internal/addr"
)

// FragmentationRow quantifies §8.1: provisioning whole subarray groups to
// VMs whose sizes do not align wastes DRAM; sub-NUMA clustering halves the
// group size and the waste.
type FragmentationRow struct {
	// Config labels the provisioning granularity.
	Config string
	// GroupGiB is the subarray group size.
	GroupGiB float64
	// WastePct is internal fragmentation across the VM size mix.
	WastePct float64
}

// vmMix is a representative cloud VM size mix (GiB), spanning micro-VMs to
// large instances (§8.1 highlights micro-VM pressure).
var vmMix = []float64{0.5, 0.5, 1, 1, 2, 2, 4, 4, 8, 16, 16, 32, 64, 160}

// FragmentationStudy computes waste for the three subarray sizes at SNC-1
// and SNC-2 on the evaluation server.
func FragmentationStudy() ([]FragmentationRow, error) {
	var out []FragmentationRow
	for _, snc := range []int{1, 2} {
		g, err := geometry.Default().WithSNC(snc)
		if err != nil {
			return nil, err
		}
		for _, rows := range []int{512, 1024, 2048} {
			gg := g.WithSubarraySize(rows)
			groupBytes := float64(gg.SubarrayGroupBytes())
			var used, granted float64
			for _, vmGiB := range vmMix {
				want := vmGiB * float64(geometry.GiB)
				groups := int((want + groupBytes - 1) / groupBytes)
				used += want
				granted += float64(groups) * groupBytes
			}
			out = append(out, FragmentationRow{
				Config:   fmt.Sprintf("SNC-%d, %d-row subarrays", snc, rows),
				GroupGiB: groupBytes / float64(geometry.GiB),
				WastePct: 100 * (granted - used) / granted,
			})
		}
	}
	return out, nil
}

// DefragRecovery is the live counterpart of the waste table: on a full
// socket a pending VM is refused (ENOMEM from fragmentation, not from lack
// of bytes elsewhere), and admission recovers once the migration planner
// rebalances a victim across sockets.
type DefragRecovery struct {
	// BeforeAdmitted / AfterAdmitted record the pending VM's admission
	// outcome before and after rebalancing.
	BeforeAdmitted bool
	AfterAdmitted  bool
	// Moves is how many live migrations the plan needed.
	Moves int
	// OrderBefore / OrderAfter are the largest free buddy order across the
	// home socket's reservable guest nodes at each instant (-1 = none).
	OrderBefore int
	OrderAfter  int
	// Histogram is the home socket's post-rebalance free-block histogram.
	Histogram string
}

// socketFreeState reads the largest reservable buddy order and the free
// block histogram across a socket's unowned guest nodes, straight from the
// allocators' introspection (no ad-hoc probing).
func socketFreeState(h *core.Hypervisor, socket int) (int, string, error) {
	largest := -1
	var counts [alloc.MaxOrder + 1]uint64
	for _, n := range h.Topology().NodesOnSocket(socket, numa.GuestReserved) {
		if _, owned := h.Registry().OwnerOf(n.ID); owned {
			continue
		}
		a, err := h.Allocator(n.ID)
		if err != nil {
			return 0, "", err
		}
		if o := a.LargestFreeOrder(); o > largest {
			largest = o
		}
		hist := a.FreeBytesByOrder()
		for o, bytes := range hist {
			counts[o] += bytes / alloc.OrderBytes(o)
		}
	}
	var parts []string
	for o := alloc.MaxOrder; o >= 0; o-- {
		if counts[o] > 0 {
			parts = append(parts, fmt.Sprintf("%d x order-%d", counts[o], o))
		}
	}
	if len(parts) == 0 {
		parts = append(parts, "none")
	}
	return largest, strings.Join(parts, ", "), nil
}

// DefragRecoveryStudy boots the two-socket lab box, fills the home socket's
// guest nodes, and shows the pending reservation flip from refused to
// admitted after the planner's moves execute.
func DefragRecoveryStudy(ctx context.Context) (*DefragRecovery, error) {
	h, err := bootLab(migrationLabProfile(), ept.GuardRows, core.ModeSiloz)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"t0", "t1", "t2"} {
		if _, err := h.CreateVM(core.KVMProcess(), core.VMSpec{Name: name, Socket: 0, MemoryBytes: 64 * geometry.MiB}); err != nil {
			return nil, err
		}
	}
	pending := core.VMSpec{Name: "pending", Socket: 0, MemoryBytes: 64 * geometry.MiB}
	out := &DefragRecovery{}
	if out.OrderBefore, _, err = socketFreeState(h, pending.Socket); err != nil {
		return nil, err
	}
	if _, err := h.CreateVM(core.KVMProcess(), pending); err == nil {
		out.BeforeAdmitted = true // scenario broken; surfaces as a failed check
	}
	plan, err := migrate.NewPlanner(h).PlanAdmission(pending)
	if err != nil {
		return nil, err
	}
	reps, err := migrate.NewEngine(h).Execute(ctx, plan)
	if err != nil {
		return nil, err
	}
	out.Moves = len(reps)
	if out.OrderAfter, out.Histogram, err = socketFreeState(h, pending.Socket); err != nil {
		return nil, err
	}
	if _, err := h.CreateVM(core.KVMProcess(), pending); err == nil {
		out.AfterAdmitted = true
	}
	return out, nil
}

// fragmentationExp is the "fragmentation" experiment: §8.1 provisioning
// waste, plus the live defrag-recovery scenario the migration engine fixes.
func fragmentationExp(ctx context.Context, pool *Pool) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rows, err := FragmentationStudy()
	if err != nil {
		return nil, err
	}
	rec, err := onPool(ctx, pool, func() (*DefragRecovery, error) { return DefragRecoveryStudy(ctx) })
	if err != nil {
		return nil, err
	}
	r := &Result{
		Name:    "fragmentation",
		Title:   "Memory fragmentation under whole-group provisioning (§8.1)",
		Columns: []string{"group", "waste", "admitted", "moves", "largest free order"},
		Units:   []string{"GiB", "%", "", "", ""},
	}
	worst := 0.0
	for _, row := range rows {
		r.row(row.Config, row.GroupGiB, row.WastePct, "", "", "")
		if row.WastePct > worst {
			worst = row.WastePct
		}
	}
	r.Rows = append(r.Rows,
		Row{Label: "defrag recovery: before rebalance", Cells: []any{"", "", rec.BeforeAdmitted, 0, rec.OrderBefore}},
		Row{Label: "defrag recovery: after rebalance", Cells: []any{"", "", rec.AfterAdmitted, rec.Moves, rec.OrderAfter}},
	)
	r.scalar("worst_waste_pct", worst)
	r.scalar("defrag_moves", float64(rec.Moves))
	r.check("defrag_recovers_admission",
		!rec.BeforeAdmitted && rec.AfterAdmitted && rec.Moves >= 1,
		"a VM refused for fragmentation is admitted after planner-driven rebalancing")
	r.Notes = append(r.Notes,
		"sub-NUMA clustering halves the group size and the waste",
		"post-rebalance free blocks on the home socket: "+rec.Histogram)
	return r, nil
}

// DDR5Row compares DDR4 and DDR5 handling of one subarray size (§8.2):
// DDR5 undoes internal mirroring/inversion at each device, so
// non-power-of-two sizes need no artificial groups or guard rows.
type DDR5Row struct {
	SubarrayRows  int
	DDR4Reserved  float64 // % of DRAM offlined on DDR4
	DDR5Reserved  float64 // % of DRAM offlined on DDR5
	DDR4Artifical bool
	DDR5Artifical bool
}

// DDR5Comparison sweeps subarray sizes under DDR4 and DDR5 transforms.
func DDR5Comparison() ([]DDR5Row, error) {
	ddr4 := addr.AllTransforms()
	ddr5 := addr.TransformConfig{Scrambling: true} // vendor scrambling may remain
	var out []DDR5Row
	for _, rows := range subarraySweepSizes {
		g, mapper, err := subarraySweepBox(rows)
		if err != nil {
			return nil, err
		}
		l4, err := subarray.NewLayoutForModule(g, mapper, ddr4)
		if err != nil {
			return nil, err
		}
		l5, err := subarray.NewLayoutForModule(g, mapper, ddr5)
		if err != nil {
			return nil, err
		}
		out = append(out, DDR5Row{
			SubarrayRows:  rows,
			DDR4Reserved:  100 * float64(len(l4.BoundaryGuardRows(ddr4))) / float64(g.RowsPerBank),
			DDR5Reserved:  100 * float64(len(l5.BoundaryGuardRows(ddr5))) / float64(g.RowsPerBank),
			DDR4Artifical: l4.Artificial(),
			DDR5Artifical: l5.Artificial(),
		})
	}
	return out, nil
}

// ddr5Exp is the "ddr5" experiment: §8.2 DDR4-vs-DDR5 group formation.
func ddr5Exp(ctx context.Context, pool *Pool) (*Result, error) {
	rows, err := onPool(ctx, pool, DDR5Comparison)
	if err != nil {
		return nil, err
	}
	r := &Result{
		Name:    "ddr5",
		Title:   "DDR4 vs DDR5 subarray group formation (§8.2)",
		Columns: []string{"DDR4 reserved", "DDR4 artificial", "DDR5 reserved", "DDR5 artificial"},
		Units:   []string{"%", "", "%", ""},
	}
	ddr5Clean := true
	ddr4Max := 0.0
	for _, row := range rows {
		r.row(fmt.Sprintf("%d-row subarrays", row.SubarrayRows), row.DDR4Reserved, row.DDR4Artifical, row.DDR5Reserved, row.DDR5Artifical)
		if row.DDR5Reserved != 0 || row.DDR5Artifical {
			ddr5Clean = false
		}
		if row.DDR4Reserved > ddr4Max {
			ddr4Max = row.DDR4Reserved
		}
	}
	r.scalar("ddr4_max_reserved_pct", ddr4Max)
	r.check("ddr5_needs_no_guards", ddr5Clean,
		"DDR5 undoes internal remaps per device, so no artificial groups or guard rows")
	return r, nil
}
