package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/guest"
)

// hotplugParams parameterizes the "hotplug" experiment: growing a running
// VM beyond its boot-time exclusive reservation by adopting additional
// subarray-group nodes, swept across growth targets and socket pressure
// (how many of the home socket's guest nodes neighbor tenants already own).
type hotplugParams struct {
	// VMBytes is the grown VM's boot-time RAM; the default fills exactly
	// one guest node, so any growth must adopt.
	VMBytes uint64
	// GrowTargets are the ResizeVM targets swept (total usable RAM after
	// the grow, > VMBytes).
	GrowTargets []uint64
	// PressureNodes sweeps how many home-socket guest nodes are
	// pre-occupied by neighbor tenants before the grow. Higher pressure
	// shrinks the adoptable pool until growth is refused outright.
	PressureNodes []int
	// ScrubGiBps is the modeled scrub bandwidth. Adoption latency is
	// reported as scrubbed bytes divided by this figure — a pure function
	// of the byte count, never a wall-clock measurement.
	ScrubGiBps float64
	// Seed drives which pages the previous occupant of the adoptable nodes
	// dirties before it is destroyed.
	Seed int64
}

// hotplugConfig resolves the sweep: one- and two-node growths against an
// idle and a contended home socket, trimmed under -quick.
func hotplugConfig(f Flags) hotplugParams {
	cfg := hotplugParams{
		VMBytes:       64 * geometry.MiB,
		GrowTargets:   []uint64{128 * geometry.MiB, 192 * geometry.MiB},
		PressureNodes: []int{0, 1},
		ScrubGiBps:    12,
		Seed:          f.seed(29),
	}
	if f.Quick {
		cfg.GrowTargets = []uint64{128 * geometry.MiB}
		cfg.PressureNodes = []int{0}
	}
	return cfg
}

// hotplugRun is one cell of the sweep.
type hotplugRun struct {
	target   uint64
	pressure int
}

// runHotplug boots a fresh Siloz system, applies socket pressure, dirties
// the adoptable nodes with a departed tenant, then drives a guest-visible
// grow end to end — preview, ResizeVM dispatch to hotplug, kernel onlining
// the bank — verifying isolation, scrubbing, and rollback at each step.
func runHotplug(cfg hotplugParams, run hotplugRun, seed int64, t *tally) error {
	h, err := bootLab(migrationLabGeometry(), migrationLabProfile(), ept.GuardRows, core.ModeSiloz)
	if err != nil {
		return err
	}
	guestNodes, nodeBytes, err := guestNodeCapacity(h, 0)
	if err != nil {
		return err
	}

	// Socket pressure: neighbor tenants each own one home-socket node.
	for i := 0; i < run.pressure; i++ {
		spec := core.VMSpec{Name: fmt.Sprintf("nbr%d", i), Socket: 0, MemoryBytes: nodeBytes}
		if _, err := h.CreateVM(core.KVMProcess(), spec); err != nil {
			return fmt.Errorf("pressure VM %d: %w", i, err)
		}
	}

	vm, err := h.CreateVM(core.KVMProcess(), core.VMSpec{Name: "plug", Socket: 0, MemoryBytes: cfg.VMBytes})
	if err != nil {
		return err
	}
	k := guest.NewKernel(vm)

	// A departed tenant dirties the adoptable nodes first: hot-added frames
	// must still reach the guest all-zero whatever they held before.
	freeNodes := guestNodes - run.pressure - int((cfg.VMBytes+nodeBytes-1)/nodeBytes)
	payload := stampPayload(11)
	if freeNodes > 0 {
		prev, err := h.CreateVM(core.KVMProcess(), core.VMSpec{Name: "departed", Socket: 0, MemoryBytes: uint64(freeNodes) * nodeBytes})
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(seed))
		pages := int(prev.Spec().MemoryBytes / geometry.PageSize2M)
		for _, p := range rng.Perm(pages)[:pages/2] {
			if err := prev.WriteGuest(uint64(p)*geometry.PageSize2M, payload); err != nil {
				return err
			}
		}
		if err := h.DestroyVM("departed"); err != nil {
			return err
		}
	}

	// Pre-grow guest state: a payload that must survive, and a mapping
	// probe proving GPAs beyond the boot reservation are unusable.
	if err := vm.WriteGuest(512, payload); err != nil {
		return err
	}
	proc, err := k.Spawn()
	if err != nil {
		return err
	}
	const probeGVA = 0x4000_0000
	guestExtends := errors.Is(proc.Map(probeGVA, cfg.VMBytes), guest.ErrOutOfRange)

	addBytes := run.target - cfg.VMBytes
	feasible := int((addBytes+nodeBytes-1)/nodeBytes) <= freeNodes

	probe := core.VMSpec{Name: "probe", Socket: 0, MemoryBytes: nodeBytes}
	probeBefore := admits(h, probe)

	previewAdopt := 0
	if plan, err := h.PreviewResize("plug", run.target); err == nil {
		previewAdopt = len(plan.AdoptedNodes)
	}

	nodesBefore := len(vm.Nodes())
	adopted, scrubBytes := 0, uint64(0)
	grew, refused, bankZero, restored := false, false, true, true
	switch err := k.Resize(run.target); {
	case err == nil:
		grew, adopted, scrubBytes = true, len(vm.Nodes())-nodesBefore, addBytes

		// The hot-added bank must read all-zero and be guest-usable.
		buf := make([]byte, geometry.PageSize4K)
		for gpa := cfg.VMBytes; gpa < run.target; gpa += geometry.PageSize2M {
			if err := vm.ReadGuest(gpa, buf); err != nil {
				return err
			}
			bankZero = bankZero && dram.AllZero(buf)
		}
		guestExtends = guestExtends && proc.Map(probeGVA, cfg.VMBytes) == nil &&
			proc.Write(probeGVA, payload) == nil
	case errors.Is(err, core.ErrCapacityExhausted):
		refused = true
		restored = len(vm.Nodes()) == nodesBefore &&
			vm.Spec().MemoryBytes == cfg.VMBytes && k.LimitBytes() == cfg.VMBytes
	default:
		return fmt.Errorf("grow to %d: %w", run.target, err)
	}
	probeAfter := admits(h, probe)
	intact, err := guestHolds(vm, 512, payload)
	if err != nil {
		return err
	}
	adoptMs := modeledMs(scrubBytes, cfg.ScrubGiBps)

	t.row(fmt.Sprintf("target=%dMiB pressure=%d", run.target/geometry.MiB, run.pressure),
		adopted, scrubBytes/geometry.MiB, adoptMs, refused, probeBefore, probeAfter)
	t.sum("total_nodes_adopted", float64(adopted))
	t.max("max_adopt_ms", adoptMs)
	t.vote("guest_data_intact", intact)
	// Cells split by whether the admission pool can cover the growth, and
	// vote on their side's checks. refusal_rate counts the infeasible ones
	// until hotplugExp divides it by the cell count.
	if !feasible {
		t.sum("refusal_rate", 1)
		t.vote("infeasible_grows_roll_back", refused && restored)
		return nil
	}
	t.sum("refusal_rate", 0)
	t.vote("feasible_grows_adopt", grew)
	t.vote("grow_matches_preview", adopted == previewAdopt)
	t.vote("hot_added_zeroed", bankZero)
	t.vote("guest_visible", guestExtends)
	return nil
}

// hotplugExp is the "hotplug" experiment: guest-visible memory hot-add via
// the resize facade — nodes adopted beyond the boot reservation, scrub
// cost, and the admission pool's capacity before and after.
func hotplugExp(ctx context.Context, pool *Pool, hc hotplugParams) (*Result, error) {
	cells := grid(hc.GrowTargets, hc.PressureNodes, func(target uint64, p int) hotplugRun {
		return hotplugRun{target: target, pressure: p}
	})
	r, err := sweep[hotplugRun]{
		result: Result{
			Name:    "hotplug",
			Title:   "Memory hotplug: growing a VM beyond its boot-time reservation",
			Columns: []string{"adopted nodes", "scrubbed", "modeled adopt", "refused", "probe before", "probe after"},
			Units:   []string{"", "MiB", "ms", "", "", ""},
			Metadata: map[string]string{
				"adopt_model": fmt.Sprintf("scrubbed bytes / %.0f GiB/s", hc.ScrubGiBps),
				"vm":          fmt.Sprintf("%d MiB at boot", hc.VMBytes/geometry.MiB),
			},
			Notes: []string{
				"hotplug is the balloon's dual: adoption consumes the admission pool, so probe admissions flip from accepted to refused as growth lands",
				"adoption latency is modeled from scrubbed bytes at fixed bandwidth, so identical runs emit identical results",
			},
		},
		seed:  hc.Seed,
		cells: cells,
		checks: []sweepCheck{
			{name: "feasible_grows_adopt", detail: "every growth the admission pool can cover adopts nodes and commits"},
			{name: "grow_matches_preview", detail: "PreviewResize predicts exactly the nodes each successful grow adopts"},
			{name: "hot_added_zeroed", detail: "the hot-added range reads all-zero even though a departed tenant dirtied the adopted nodes"},
			{name: "guest_visible", detail: "Process.Map refuses GPAs beyond the boot reservation before the grow and accepts them after"},
			{name: "guest_data_intact", detail: "pre-grow guest memory survives the hotplug"},
			{name: "infeasible_grows_roll_back", detail: "over-capacity growths fail with ErrCapacityExhausted and leave size, node set, and kernel limit unchanged"},
		},
		cell: func(run hotplugRun, seed int64, t *tally) error { return runHotplug(hc, run, seed, t) },
	}.run(ctx, pool)
	if err != nil {
		return nil, err
	}
	r.scalar("refusal_rate", r.Scalars["refusal_rate"]/float64(len(cells)))
	return r, nil
}
