package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/guest"
	"repro/internal/numa"
)

// balloonParams parameterizes the "ballooning" experiment: how much of an
// over-provisioned VM's exclusive reservation the balloon driver can return
// to the admission pool, and at what modeled scrub cost, as a function of
// the balloon target and of how much of the surrendered memory the guest
// had actually dirtied.
type balloonParams struct {
	// VMBytes is the ballooned VM's RAM; the default fills every guest
	// node of its home socket so any admission requires reclaim.
	VMBytes uint64
	// MinBytes is the VM's declared balloon floor (VMSpec.MinMemoryBytes).
	MinBytes uint64
	// Targets are the balloon sizes swept (bytes surrendered).
	Targets []uint64
	// TouchedFractions sweep how much of the surrendered range the guest
	// wrote before inflating — only touched pages need scrubbing.
	TouchedFractions []float64
	// ScrubGiBps is the modeled scrub bandwidth. Reclaim latency is
	// reported as scrubbed bytes divided by this figure — a pure function
	// of the byte count, never a wall-clock measurement.
	ScrubGiBps float64
	// Seed drives which surrendered pages the guest dirties.
	Seed int64
}

// balloonConfig resolves the sweep: one- and two-node balloons across
// lightly and fully dirtied guests, trimmed under -quick.
func balloonConfig(f Flags) balloonParams {
	cfg := balloonParams{
		VMBytes:          192 * geometry.MiB,
		MinBytes:         64 * geometry.MiB,
		Targets:          []uint64{64 * geometry.MiB, 128 * geometry.MiB},
		TouchedFractions: []float64{0.25, 1},
		ScrubGiBps:       12,
		Seed:             f.seed(13),
	}
	if f.Quick {
		cfg.Targets = []uint64{64 * geometry.MiB}
		cfg.TouchedFractions = []float64{1}
	}
	return cfg
}

// balloonRun is one cell of the sweep.
type balloonRun struct {
	target   uint64
	fraction float64
}

func (r balloonRun) label() string {
	return fmt.Sprintf("target=%dMiB touched=%.0f%%", r.target/geometry.MiB, r.fraction*100)
}

// balloonRowResult is one completed run, index-addressed for the pool.
type balloonRowResult struct {
	run           balloonRun
	nodesReleased int
	nodeBytes     uint64
	scrubBytes    uint64  // touched pages in the surrendered range × 2 MiB
	reclaimMs     float64 // modeled scrub latency
	admitted      bool    // tenant sized to the reclaimed nodes admitted
	releasedZero  bool    // every released node reads all-zero
	dataIntact    bool    // below-balloon guest data survived the cycle
	deflated      bool    // deflate re-adopted and restored pages are usable
}

// reclaimed is the capacity the released nodes returned to the pool.
func (r *balloonRowResult) reclaimed() uint64 { return uint64(r.nodesReleased) * r.nodeBytes }

// runBalloon boots a fresh Siloz system, fills a socket with one
// over-provisioned VM, drives the guest balloon driver end to end —
// inflate, tenant admission onto the released nodes, deflate — and verifies
// the reservation-release invariants at each step.
func runBalloon(cfg balloonParams, run balloonRun, seed int64) (*balloonRowResult, error) {
	h, err := bootLab(migrationLabGeometry(), migrationLabProfile(), ept.GuardRows, core.ModeSiloz)
	if err != nil {
		return nil, err
	}
	vm, err := h.CreateVM(core.KVMProcess(), core.VMSpec{
		Name: "bal", Socket: 0, MemoryBytes: cfg.VMBytes, MinMemoryBytes: cfg.MinBytes,
	})
	if err != nil {
		return nil, err
	}
	k := guest.NewKernel(vm)

	// Deterministic payload below the balloon: must survive the cycle.
	payload := stampPayload(7)
	if err := vm.WriteGuest(512, payload); err != nil {
		return nil, err
	}
	// Dirty the configured fraction of the pages about to be surrendered;
	// only these enter the touched-page ledger and need scrubbing.
	surrStart := cfg.VMBytes - run.target
	surrPages := int(run.target / geometry.PageSize2M)
	touched := int(float64(surrPages)*run.fraction + 0.5)
	rng := rand.New(rand.NewSource(seed))
	for _, p := range rng.Perm(surrPages)[:touched] {
		if err := vm.WriteGuest(surrStart+uint64(p)*geometry.PageSize2M, payload); err != nil {
			return nil, err
		}
	}

	before := append([]*numa.Node(nil), vm.Nodes()...)
	if err := k.Balloon().SetTarget(run.target); err != nil {
		return nil, fmt.Errorf("inflate to %d: %w", run.target, err)
	}
	kept := map[int]bool{}
	for _, n := range vm.Nodes() {
		kept[n.ID] = true
	}
	var released []*numa.Node
	for _, n := range before {
		if !kept[n.ID] {
			released = append(released, n)
		}
	}

	res := &balloonRowResult{
		run:           run,
		nodesReleased: len(released),
		scrubBytes:    uint64(touched) * geometry.PageSize2M,
		dataIntact:    true,
		releasedZero:  true,
	}
	res.reclaimMs = modeledMs(res.scrubBytes, cfg.ScrubGiBps)
	if _, res.nodeBytes, err = guestNodeCapacity(h, 0); err != nil {
		return nil, err
	}

	// Every released node must read all-zero before a tenant lands on it.
	probe := make([]byte, geometry.PageSize4K)
	for _, n := range released {
		for _, r := range n.Ranges {
			for pa := r.Start; pa+geometry.PageSize4K <= r.End; pa += geometry.PageSize2M {
				if err := h.Memory().ReadPhys(pa, probe); err != nil {
					return nil, err
				}
				res.releasedZero = res.releasedZero && dram.AllZero(probe)
			}
		}
	}

	// The reclaimed capacity admits a tenant the full socket refused.
	if len(released) > 0 {
		res.admitted = admits(h, core.VMSpec{
			Name: "tenant", Socket: 0, MemoryBytes: uint64(len(released)) * res.nodeBytes,
		})
	}

	// Deflate: re-adopt the capacity, then prove restored memory is zeroed
	// and writable and the pre-balloon payload survived.
	if err := k.Balloon().SetTarget(0); err == nil {
		res.deflated = vm.ReadGuest(surrStart, probe) == nil && dram.AllZero(probe) &&
			vm.WriteGuest(surrStart, payload) == nil
	}
	if res.dataIntact, err = guestHolds(vm, 512, payload); err != nil {
		return nil, err
	}
	return res, nil
}

// ballooningExp is the "ballooning" experiment: partial reservation release
// via the guest balloon driver — nodes reclaimed, scrub cost, and admission
// of a new tenant onto the released subarray groups.
func ballooningExp(ctx context.Context, pool *Pool, bc balloonParams) (*Result, error) {
	runs := grid(bc.Targets, bc.TouchedFractions, func(target uint64, f float64) balloonRun {
		return balloonRun{target: target, fraction: f}
	})
	results, err := mapCells(ctx, pool, bc.Seed, runs, func(run balloonRun, seed int64) (*balloonRowResult, error) {
		return runBalloon(bc, run, seed)
	})
	if err != nil {
		return nil, err
	}

	r := &Result{
		Name:    "ballooning",
		Title:   "Memory ballooning: partial reservation release and reclaim cost",
		Columns: []string{"nodes released", "reclaimed", "scrubbed", "modeled reclaim", "tenant admitted", "deflated"},
		Units:   []string{"", "MiB", "MiB", "ms", "", ""},
		Metadata: map[string]string{
			"reclaim_model": fmt.Sprintf("scrubbed bytes / %.0f GiB/s", bc.ScrubGiBps),
			"vm":            fmt.Sprintf("%d MiB, floor %d MiB", bc.VMBytes/geometry.MiB, bc.MinBytes/geometry.MiB),
		},
	}
	var totalReleased int
	var maxReclaim float64
	for _, res := range results {
		r.row(res.run.label(), res.nodesReleased, res.reclaimed()/geometry.MiB, res.scrubBytes/geometry.MiB,
			res.reclaimMs, res.admitted, res.deflated)
		totalReleased += res.nodesReleased
		maxReclaim = max(maxReclaim, res.reclaimMs)
	}
	r.scalar("total_nodes_released", float64(totalReleased))
	r.scalar("max_reclaim_ms", maxReclaim)
	// A whole-socket VM's surrendered range is node-aligned, so every
	// ballooned node must drain completely.
	r.check("whole_nodes_released", allCells(results, func(c *balloonRowResult) bool { return c.reclaimed() == c.run.target }),
		"every surrendered subarray-group node drains and leaves the VM's domain")
	r.check("released_nodes_zeroed", allCells(results, func(c *balloonRowResult) bool { return c.releasedZero }),
		"released nodes read all-zero before any tenant is admitted onto them")
	r.check("tenant_admitted", allCells(results, func(c *balloonRowResult) bool { return c.admitted }),
		"a tenant sized to the reclaimed nodes is admitted on the previously-full socket")
	r.check("guest_data_intact", allCells(results, func(c *balloonRowResult) bool { return c.dataIntact }),
		"guest memory below the balloon survives the inflate/deflate cycle")
	r.check("deflate_restores", allCells(results, func(c *balloonRowResult) bool { return c.deflated }),
		"deflation re-adopts capacity and restored pages are zeroed and writable")
	r.Notes = append(r.Notes,
		"scrub cost scales with the touched-page ledger, not the balloon size: untouched pages skip scrubbing",
		"reclaim latency is modeled from scrubbed bytes at fixed bandwidth, so identical runs emit identical results")
	return r, nil
}
