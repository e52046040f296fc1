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

// vmMix is a representative cloud VM size mix (GiB), spanning micro-VMs to
// large instances (§8.1 highlights micro-VM pressure).
var vmMix = []float64{0.5, 0.5, 1, 1, 2, 2, 4, 4, 8, 16, 16, 32, 64, 160}

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

// fragmentationExp is the "fragmentation" experiment. Its table quantifies
// §8.1: provisioning whole subarray groups to VMs whose sizes do not align
// wastes DRAM — internal fragmentation across the VM size mix, for the three
// subarray sizes at SNC-1 and SNC-2 on the evaluation server; sub-NUMA
// clustering halves the group size and the waste. Its last two rows are the
// live counterpart: on a full socket of the two-socket lab box a pending VM is
// refused (ENOMEM from fragmentation, not from lack of bytes elsewhere), and
// admission recovers once the migration planner's moves rebalance a victim
// across sockets. They carry the pending VM's admission outcome, the live
// migrations the plan needed, and the largest free buddy order across the
// home socket's reservable guest nodes (-1 = none) at each instant.
func fragmentationExp(ctx context.Context, pool *Pool) (*Result, error) {
	return onPool(ctx, pool, func() (*Result, error) {
		r := &Result{
			Name:    "fragmentation",
			Title:   "Memory fragmentation under whole-group provisioning (§8.1)",
			Columns: []string{"group", "waste", "admitted", "moves", "largest free order"},
			Units:   []string{"GiB", "%", "", "", ""},
		}
		worst := 0.0
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
				wastePct := 100 * (granted - used) / granted
				r.row(fmt.Sprintf("SNC-%d, %d-row subarrays", snc, rows),
					groupBytes/float64(geometry.GiB), wastePct, "", "", "")
				worst = max(worst, wastePct)
			}
		}
		r.scalar("worst_waste_pct", worst)
		r.Notes = append(r.Notes, "sub-NUMA clustering halves the group size and the waste")

		h, err := bootLab(migrationLabGeometry(), migrationLabProfile(), ept.GuardRows, core.ModeSiloz)
		if err != nil {
			return nil, err
		}
		for _, name := range []string{"t0", "t1", "t2"} {
			if _, err := h.CreateVM(core.KVMProcess(), core.VMSpec{Name: name, Socket: 0, MemoryBytes: 64 * geometry.MiB}); err != nil {
				return nil, err
			}
		}
		pending := core.VMSpec{Name: "pending", Socket: 0, MemoryBytes: 64 * geometry.MiB}
		orderBefore, _, err := socketFreeState(h, pending.Socket)
		if err != nil {
			return nil, err
		}
		// An admission here means the scenario is broken; it surfaces as a
		// failed check.
		_, err = h.CreateVM(core.KVMProcess(), pending)
		beforeAdmitted := err == nil
		plan, err := migrate.NewPlanner(h).PlanAdmission(pending)
		if err != nil {
			return nil, err
		}
		reps, err := migrate.NewEngine(h).Execute(ctx, plan)
		if err != nil {
			return nil, err
		}
		orderAfter, histogram, err := socketFreeState(h, pending.Socket)
		if err != nil {
			return nil, err
		}
		_, err = h.CreateVM(core.KVMProcess(), pending)
		afterAdmitted := err == nil

		r.row("defrag recovery: before rebalance", "", "", beforeAdmitted, 0, orderBefore)
		r.row("defrag recovery: after rebalance", "", "", afterAdmitted, len(reps), orderAfter)
		r.scalar("defrag_moves", float64(len(reps)))
		r.check("defrag_recovers_admission",
			!beforeAdmitted && afterAdmitted && len(reps) >= 1,
			"a VM refused for fragmentation is admitted after planner-driven rebalancing")
		r.Notes = append(r.Notes, "post-rebalance free blocks on the home socket: "+histogram)
		return r, nil
	})
}

// ddr5Exp is the "ddr5" experiment: §8.2 DDR4-vs-DDR5 group formation,
// swept over subarray sizes under each generation's transforms. DDR5 undoes
// internal mirroring/inversion at each device, so non-power-of-two sizes need
// no artificial groups or guard rows; each row reports the share of DRAM
// offlined and whether artificial groups form, per generation.
func ddr5Exp(ctx context.Context, pool *Pool) (*Result, error) {
	return onPool(ctx, pool, func() (*Result, error) {
		ddr4 := addr.AllTransforms()
		ddr5 := addr.TransformConfig{Scrambling: true} // vendor scrambling may remain
		r := &Result{
			Name:    "ddr5",
			Title:   "DDR4 vs DDR5 subarray group formation (§8.2)",
			Columns: []string{"DDR4 reserved", "DDR4 artificial", "DDR5 reserved", "DDR5 artificial"},
			Units:   []string{"%", "", "%", ""},
		}
		ddr5Clean := true
		ddr4Max := 0.0
		for _, rows := range subarraySweepSizes {
			g, mapper, err := subarraySweepBox(rows)
			if err != nil {
				return nil, err
			}
			l4, err := subarray.NewLayout(g, mapper, ddr4)
			if err != nil {
				return nil, err
			}
			l5, err := subarray.NewLayout(g, mapper, ddr5)
			if err != nil {
				return nil, err
			}
			ddr4Reserved := 100 * float64(len(l4.BoundaryGuardRows())) / float64(g.RowsPerBank)
			ddr5Reserved := 100 * float64(len(l5.BoundaryGuardRows())) / float64(g.RowsPerBank)
			r.row(fmt.Sprintf("%d-row subarrays", rows), ddr4Reserved, l4.Artificial(), ddr5Reserved, l5.Artificial())
			if ddr5Reserved != 0 || l5.Artificial() {
				ddr5Clean = false
			}
			ddr4Max = max(ddr4Max, ddr4Reserved)
		}
		r.scalar("ddr4_max_reserved_pct", ddr4Max)
		r.check("ddr5_needs_no_guards", ddr5Clean,
			"DDR5 undoes internal remaps per device, so no artificial groups or guard rows")
		return r, nil
	})
}
