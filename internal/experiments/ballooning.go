package experiments

import (
	"context"
	"fmt"
	"slices"

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
// the balloon target. Every surrendered page is scrubbed, so the cost is the
// target's.
type balloonParams struct {
	// VMBytes is the ballooned VM's RAM; the default fills every guest
	// node of its home socket so any admission requires reclaim.
	VMBytes uint64
	// MinBytes is the VM's declared balloon floor (VMSpec.MinMemoryBytes).
	MinBytes uint64
	// Targets are the balloon sizes swept (bytes surrendered), one cell each.
	Targets []uint64
	// ScrubGiBps is the modeled scrub bandwidth. Reclaim latency is
	// reported as scrubbed bytes divided by this figure — a pure function
	// of the byte count, never a wall-clock measurement.
	ScrubGiBps float64
}

// balloonConfig resolves the sweep: one- and two-node balloons, trimmed to
// the one-node balloon under -quick.
func balloonConfig(f Flags) balloonParams {
	cfg := balloonParams{
		VMBytes:    192 * geometry.MiB,
		MinBytes:   64 * geometry.MiB,
		Targets:    []uint64{64 * geometry.MiB, 128 * geometry.MiB},
		ScrubGiBps: 12,
	}
	if f.Quick {
		cfg.Targets = cfg.Targets[:1]
	}
	return cfg
}

// runBalloon boots a fresh Siloz system, fills a socket with one
// over-provisioned VM, drives the guest balloon driver end to end —
// inflate, tenant admission onto the released nodes, deflate — and verifies
// the reservation-release invariants at each step.
func runBalloon(cfg balloonParams, target uint64, t *tally) error {
	h, err := bootLab(migrationLabGeometry(), migrationLabProfile(), ept.GuardRows, core.ModeSiloz)
	if err != nil {
		return err
	}
	vm, err := h.CreateVM(core.KVMProcess(), core.VMSpec{
		Name: "bal", Socket: 0, MemoryBytes: cfg.VMBytes, MinMemoryBytes: cfg.MinBytes,
	})
	if err != nil {
		return err
	}
	k := guest.NewKernel(vm)

	// Deterministic payload below the balloon: must survive the cycle.
	payload := stampPayload(7)
	if err := vm.WriteGuest(512, payload); err != nil {
		return err
	}
	// Dirty every page about to be surrendered: the released nodes must
	// read zero whatever the guest left in them.
	surrStart := cfg.VMBytes - target
	for gpa := surrStart; gpa < cfg.VMBytes; gpa += geometry.PageSize2M {
		if err := vm.WriteGuest(gpa, payload); err != nil {
			return err
		}
	}

	before := append([]*numa.Node(nil), vm.Nodes()...)
	if err := k.Resize(cfg.VMBytes - target); err != nil {
		return fmt.Errorf("inflate to %d: %w", target, err)
	}
	var released []*numa.Node
	for _, n := range before {
		if !slices.ContainsFunc(vm.Nodes(), func(m *numa.Node) bool { return m.ID == n.ID }) {
			released = append(released, n)
		}
	}
	reclaimMs := modeledMs(target, cfg.ScrubGiBps)
	_, nodeBytes, err := guestNodeCapacity(h, 0)
	if err != nil {
		return err
	}
	reclaimed := uint64(len(released)) * nodeBytes

	// Every released node must read all-zero before a tenant lands on it.
	probe := make([]byte, geometry.PageSize4K)
	zeroed := true
	for _, n := range released {
		for _, r := range n.Ranges {
			for pa := r.Start; pa+geometry.PageSize4K <= r.End; pa += geometry.PageSize2M {
				if err := h.Memory().ReadPhys(pa, probe); err != nil {
					return err
				}
				zeroed = zeroed && dram.AllZero(probe)
			}
		}
	}

	// The reclaimed capacity admits a tenant the full socket refused.
	admitted := len(released) > 0 && admits(h, core.VMSpec{Name: "tenant", Socket: 0, MemoryBytes: reclaimed})

	// Deflate: re-adopt the capacity, then prove restored memory is zeroed
	// and writable and the pre-balloon payload survived.
	deflated := k.Resize(cfg.VMBytes) == nil && vm.ReadGuest(surrStart, probe) == nil &&
		dram.AllZero(probe) && vm.WriteGuest(surrStart, payload) == nil
	intact, err := guestHolds(vm, 512, payload)
	if err != nil {
		return err
	}

	t.row(fmt.Sprintf("target=%dMiB", target/geometry.MiB),
		len(released), reclaimed/geometry.MiB, target/geometry.MiB, reclaimMs, admitted, deflated)
	t.sum("total_nodes_released", float64(len(released)))
	t.max("max_reclaim_ms", reclaimMs)
	// A whole-socket VM's surrendered range is node-aligned, so every
	// ballooned node must drain completely.
	t.vote("whole_nodes_released", reclaimed == target)
	t.vote("released_nodes_zeroed", zeroed)
	t.vote("tenant_admitted", admitted)
	t.vote("guest_data_intact", intact)
	t.vote("deflate_restores", deflated)
	return nil
}

// ballooningExp is the "ballooning" experiment: partial reservation release
// via the guest balloon driver — nodes reclaimed, scrub cost, and admission
// of a new tenant onto the released subarray groups.
func ballooningExp(ctx context.Context, pool *Pool, bc balloonParams) (*Result, error) {
	return sweep[uint64]{
		result: Result{
			Name:    "ballooning",
			Title:   "Memory ballooning: partial reservation release and reclaim cost",
			Columns: []string{"nodes released", "reclaimed", "scrubbed", "modeled reclaim", "tenant admitted", "deflated"},
			Units:   []string{"", "MiB", "MiB", "ms", "", ""},
			Metadata: map[string]string{
				"reclaim_model": fmt.Sprintf("scrubbed bytes / %.0f GiB/s", bc.ScrubGiBps),
				"vm":            fmt.Sprintf("%d MiB, floor %d MiB", bc.VMBytes/geometry.MiB, bc.MinBytes/geometry.MiB),
			},
			Notes: []string{
				"every surrendered page is scrubbed, written or not (a flip needs no store), so scrub cost is the balloon size",
				"reclaim latency is modeled from scrubbed bytes at fixed bandwidth, so identical runs emit identical results",
			},
		},
		cells: bc.Targets,
		checks: []sweepCheck{
			{name: "whole_nodes_released", detail: "every surrendered subarray-group node drains and leaves the VM's domain"},
			{name: "released_nodes_zeroed", detail: "released nodes read all-zero before any tenant is admitted onto them"},
			{name: "tenant_admitted", detail: "a tenant sized to the reclaimed nodes is admitted on the previously-full socket"},
			{name: "guest_data_intact", detail: "guest memory below the balloon survives the inflate/deflate cycle"},
			{name: "deflate_restores", detail: "deflation re-adopts capacity and restored pages are zeroed and writable"},
		},
		cell: func(target uint64, _ int64, t *tally) error { return runBalloon(bc, target, t) },
	}.run(ctx, pool)
}
