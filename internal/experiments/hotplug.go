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

func (r hotplugRun) label() string {
	return fmt.Sprintf("target=%dMiB pressure=%d", r.target/geometry.MiB, r.pressure)
}

// hotplugRowResult is one completed run, index-addressed for the pool.
type hotplugRowResult struct {
	run           hotplugRun
	feasible      bool // enough unowned home-socket nodes for the growth
	grew          bool // the grow succeeded
	refusedCap    bool // refused with core.ErrCapacityExhausted
	adopted       int  // nodes adopted by the grow
	previewAdopt  int  // nodes PreviewResize predicted it would adopt
	scrubBytes    uint64
	adoptMs       float64 // modeled adoption latency
	bankZero      bool    // the hot-added range reads all-zero
	guestExtends  bool    // Process.Map beyond the old limit: refused before, works after
	dataIntact    bool    // pre-grow guest data survives
	stateRestored bool    // refused grows leave size and node set unchanged
	probeBefore   bool    // probe tenant admitted before the grow
	probeAfter    bool    // probe tenant admitted after the grow
}

// runHotplug boots a fresh Siloz system, applies socket pressure, dirties
// the adoptable nodes with a departed tenant, then drives a guest-visible
// grow end to end — preview, ResizeVM dispatch to hotplug, kernel onlining
// the bank — verifying isolation, scrubbing, and rollback at each step.
func runHotplug(cfg hotplugParams, run hotplugRun, seed int64) (*hotplugRowResult, error) {
	h, err := bootLab(migrationLabGeometry(), migrationLabProfile(), ept.GuardRows, core.ModeSiloz)
	if err != nil {
		return nil, err
	}
	guestNodes, nodeBytes, err := guestNodeCapacity(h, 0)
	if err != nil {
		return nil, err
	}

	// Socket pressure: neighbor tenants each own one home-socket node.
	for i := 0; i < run.pressure; i++ {
		spec := core.VMSpec{Name: fmt.Sprintf("nbr%d", i), Socket: 0, MemoryBytes: nodeBytes}
		if _, err := h.CreateVM(core.KVMProcess(), spec); err != nil {
			return nil, fmt.Errorf("pressure VM %d: %w", i, err)
		}
	}

	vm, err := h.CreateVM(core.KVMProcess(), core.VMSpec{Name: "plug", Socket: 0, MemoryBytes: cfg.VMBytes})
	if err != nil {
		return nil, err
	}
	k := guest.NewKernel(vm)

	// A departed tenant dirties the adoptable nodes first: hot-added frames
	// must still reach the guest all-zero whatever they held before.
	freeNodes := guestNodes - run.pressure - int((cfg.VMBytes+nodeBytes-1)/nodeBytes)
	payload := stampPayload(11)
	if freeNodes > 0 {
		prev, err := h.CreateVM(core.KVMProcess(), core.VMSpec{Name: "departed", Socket: 0, MemoryBytes: uint64(freeNodes) * nodeBytes})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		pages := int(prev.Spec().MemoryBytes / geometry.PageSize2M)
		for _, p := range rng.Perm(pages)[:pages/2] {
			if err := prev.WriteGuest(uint64(p)*geometry.PageSize2M, payload); err != nil {
				return nil, err
			}
		}
		if err := h.DestroyVM("departed"); err != nil {
			return nil, err
		}
	}

	// Pre-grow guest state: a payload that must survive, and a mapping
	// probe proving GPAs beyond the boot reservation are unusable.
	if err := vm.WriteGuest(512, payload); err != nil {
		return nil, err
	}
	proc, err := k.Spawn()
	if err != nil {
		return nil, err
	}
	const probeGVA = 0x4000_0000
	res := &hotplugRowResult{run: run, dataIntact: true, bankZero: true, stateRestored: true}
	res.guestExtends = errors.Is(proc.Map(probeGVA, cfg.VMBytes), guest.ErrOutOfRange)

	needNodes := int((run.target - cfg.VMBytes + nodeBytes - 1) / nodeBytes)
	res.feasible = needNodes <= freeNodes

	probe := core.VMSpec{Name: "probe", Socket: 0, MemoryBytes: nodeBytes}
	res.probeBefore = admits(h, probe)

	if plan, err := h.PreviewResize("plug", run.target); err == nil {
		res.previewAdopt = len(plan.AdoptedNodes)
	}

	nodesBefore := len(vm.Nodes())
	addBytes := run.target - cfg.VMBytes
	bank, err := k.HotplugBank(addBytes)
	switch {
	case err == nil:
		res.grew = true
		res.adopted = len(vm.Nodes()) - nodesBefore
		res.scrubBytes = addBytes
		res.adoptMs = modeledMs(res.scrubBytes, cfg.ScrubGiBps)

		// The hot-added bank must read all-zero and be guest-usable.
		buf := make([]byte, geometry.PageSize4K)
		for off := uint64(0); off < bank.Bytes; off += geometry.PageSize2M {
			if err := vm.ReadGuest(bank.Start+off, buf); err != nil {
				return nil, err
			}
			res.bankZero = res.bankZero && dram.AllZero(buf)
		}
		res.guestExtends = res.guestExtends && proc.Map(probeGVA, bank.Start) == nil &&
			proc.Write(probeGVA, payload) == nil
	case errors.Is(err, core.ErrCapacityExhausted):
		res.refusedCap = true
		res.stateRestored = len(vm.Nodes()) == nodesBefore &&
			vm.Spec().MemoryBytes == cfg.VMBytes && k.LimitBytes() == cfg.VMBytes
	default:
		return nil, fmt.Errorf("grow to %d: %w", run.target, err)
	}
	res.probeAfter = admits(h, probe)

	if res.dataIntact, err = guestHolds(vm, 512, payload); err != nil {
		return nil, err
	}
	return res, nil
}

// hotplugExp is the "hotplug" experiment: guest-visible memory hot-add via
// the resize facade — nodes adopted beyond the boot reservation, scrub
// cost, and the admission pool's capacity before and after.
func hotplugExp(ctx context.Context, pool *Pool, hc hotplugParams) (*Result, error) {
	runs := grid(hc.GrowTargets, hc.PressureNodes, func(target uint64, p int) hotplugRun {
		return hotplugRun{target: target, pressure: p}
	})
	results, err := mapCells(ctx, pool, hc.Seed, runs, func(run hotplugRun, seed int64) (*hotplugRowResult, error) {
		return runHotplug(hc, run, seed)
	})
	if err != nil {
		return nil, err
	}

	r := &Result{
		Name:    "hotplug",
		Title:   "Memory hotplug: growing a VM beyond its boot-time reservation",
		Columns: []string{"adopted nodes", "scrubbed", "modeled adopt", "refused", "probe before", "probe after"},
		Units:   []string{"", "MiB", "ms", "", "", ""},
		Metadata: map[string]string{
			"adopt_model": fmt.Sprintf("scrubbed bytes / %.0f GiB/s", hc.ScrubGiBps),
			"vm":          fmt.Sprintf("%d MiB at boot", hc.VMBytes/geometry.MiB),
		},
	}
	// Cells split by whether the admission pool can cover the growth.
	var feasible, infeasible []*hotplugRowResult
	var totalAdopted int
	var maxAdopt float64
	for _, res := range results {
		r.row(res.run.label(), res.adopted, res.scrubBytes/geometry.MiB, res.adoptMs,
			res.refusedCap, res.probeBefore, res.probeAfter)
		if res.feasible {
			feasible = append(feasible, res)
		} else {
			infeasible = append(infeasible, res)
		}
		totalAdopted += res.adopted
		maxAdopt = max(maxAdopt, res.adoptMs)
	}
	r.scalar("total_nodes_adopted", float64(totalAdopted))
	r.scalar("max_adopt_ms", maxAdopt)
	r.scalar("refusal_rate", float64(len(infeasible))/float64(len(results)))
	r.check("feasible_grows_adopt", allCells(feasible, func(c *hotplugRowResult) bool { return c.grew }),
		"every growth the admission pool can cover adopts nodes and commits")
	r.check("grow_matches_preview", allCells(feasible, func(c *hotplugRowResult) bool { return c.adopted == c.previewAdopt }),
		"PreviewResize predicts exactly the nodes each successful grow adopts")
	r.check("hot_added_zeroed", allCells(feasible, func(c *hotplugRowResult) bool { return c.bankZero }),
		"the hot-added range reads all-zero even though a departed tenant dirtied the adopted nodes")
	r.check("guest_visible", allCells(feasible, func(c *hotplugRowResult) bool { return c.guestExtends }),
		"Process.Map refuses GPAs beyond the boot reservation before the grow and accepts them after")
	r.check("guest_data_intact", allCells(results, func(c *hotplugRowResult) bool { return c.dataIntact }),
		"pre-grow guest memory survives the hotplug")
	r.check("infeasible_grows_roll_back", allCells(infeasible, func(c *hotplugRowResult) bool { return c.refusedCap && c.stateRestored }),
		"over-capacity growths fail with ErrCapacityExhausted and leave size, node set, and kernel limit unchanged")
	r.Notes = append(r.Notes,
		"hotplug is the balloon's dual: adoption consumes the admission pool, so probe admissions flip from accepted to refused as growth lands",
		"adoption latency is modeled from scrubbed bytes at fixed bandwidth, so identical runs emit identical results")
	return r, nil
}
