package experiments

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/addr"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/mitigation"
	"repro/internal/numa"
)

// This file holds the scaffolding the experiments share: the lab machine,
// guest payload stamping and verification, node capacity and admission
// probes, and the sweep helpers — grid, per-cell seeds, fan-out, check folds
// and the sweep value the lifecycle studies are written as.

// migrationLabGeometry is the small two-socket box the lifecycle studies
// run on: 4 subarray groups of 64 MiB per socket, so under Siloz each
// socket carves into 1 host + 1 EPT + 3 guest nodes and every operation
// runs in milliseconds.
func migrationLabGeometry() geometry.Geometry {
	return geometry.Geometry{
		Sockets:         2,
		CoresPerSocket:  4,
		DIMMsPerSocket:  1,
		RanksPerDIMM:    2,
		BanksPerRank:    8,
		RowsPerBank:     2048,
		RowBytes:        8 * geometry.KiB,
		RowsPerSubarray: 512,
	}
}

// migrationLabProfile strips the DRAM transforms so subarray groups form
// without artificial padding; rowhammer susceptibility is irrelevant here.
func migrationLabProfile() dram.Profile {
	p := dram.ProfileF()
	p.Transforms = addr.TransformConfig{}
	return p
}

// eptRelocProfile is the lab DIMM for studies that hammer: transforms
// stripped so subarray groups form without padding, every row fully
// vulnerable and dense with weak cells so hammering is deterministic rather
// than probabilistic.
func eptRelocProfile() dram.Profile {
	p := migrationLabProfile()
	p.VulnerableRowFraction = 1
	p.WeakCellsPerRow = 600
	p.HammerThreshold = 5000
	return p
}

// lifecycleLabConfig is the campaign box: the lab geometry with the
// deterministic-flip profile, so hammering bites and every flip is
// attributable.
func lifecycleLabConfig() core.Config {
	return core.Config{
		Geometry:      migrationLabGeometry(),
		Profiles:      []dram.Profile{eptRelocProfile()},
		EPTProtection: ept.GuardRows,
	}
}

// bootLab boots a machine of geometry g populated with one DIMM profile.
func bootLab(g geometry.Geometry, prof dram.Profile, prot ept.IntegrityMode, mode core.Mode) (*core.Hypervisor, error) {
	return core.Boot(core.Config{
		Geometry:      g,
		Profiles:      []dram.Profile{prof},
		EPTProtection: prot,
	}, mode)
}

// modeledMs is the latency every lifecycle study reports for moving or
// scrubbing n bytes at a fixed bandwidth — a pure function of the byte
// count, never a wall-clock measurement, so identical runs emit identical
// results.
func modeledMs(n uint64, gibps float64) float64 {
	return float64(n) / (gibps * float64(geometry.GiB)) * 1e3
}

// onPool runs a monolithic study under one worker slot, so a width-1 pool
// serializes it against other experiments' work.
func onPool(ctx context.Context, pool *Pool, study func() (*Result, error)) (*Result, error) {
	var out *Result
	err := pool.Map(ctx, 1, func(int) error {
		var err error
		out, err = study()
		return err
	})
	return out, err
}

// grid returns the row-major cross product of two sweep axes, one cell per
// pair. A third axis nests: grid(as, grid(bs, cs, ...), ...).
func grid[A, B, C any](as []A, bs []B, cell func(A, B) C) []C {
	out := make([]C, 0, len(as)*len(bs))
	for _, a := range as {
		for _, b := range bs {
			out = append(out, cell(a, b))
		}
	}
	return out
}

// mapCells runs one task per cell of an experiment's sweep grid on the pool
// and returns the results by cell index — the collection order that makes
// every sweep byte-identical at any pool width. Cell i's task is handed
// RepSeed(seed, i): a cell's randomness derives from its index alone.
func mapCells[C, R any](ctx context.Context, pool *Pool, seed int64, cells []C, task func(c C, seed int64) (R, error)) ([]R, error) {
	out := make([]R, len(cells))
	err := pool.Map(ctx, len(cells), func(i int) error {
		var err error
		out[i], err = task(cells[i], RepSeed(seed, i))
		return err
	})
	return out, err
}

// mapReps is mapCells over a grid that repeats every group reps times with
// salt-spaced seeds, group-major: cell i is rep i%reps of group i/reps, and
// out[g] holds group g's reps in order.
func mapReps[G, R any](ctx context.Context, pool *Pool, seed int64, groups []G, reps int, task func(g G, seed int64) (R, error)) ([][]R, error) {
	out := make([][]R, len(groups))
	for g := range out {
		out[g] = make([]R, reps)
	}
	err := pool.Map(ctx, len(groups)*reps, func(i int) error {
		var err error
		out[i/reps][i%reps], err = task(groups[i/reps], RepSeed(seed, i))
		return err
	})
	return out, err
}

// allCells folds an every-cell check: ok must hold for each cell's result.
func allCells[R any](cells []R, ok func(R) bool) bool {
	for _, c := range cells {
		if !ok(c) {
			return false
		}
	}
	return true
}

// sweep is a grid study as one value: the Result it fills, its seed and
// cells, the checks its cells vote on, and the body that runs one cell.
// run is the only place a sweep's rows, votes and scalars are folded.
type sweep[C any] struct {
	// result is the template run fills: Name, Title, Columns, Units,
	// Metadata and Notes.
	result Result
	seed   int64
	cells  []C
	checks []sweepCheck // in Result order
	cell   func(c C, seed int64, t *tally) error
}

// sweepCheck is one check the cells vote on. An every-cell check passes
// unless a cell voted false on it, so one no cell votes on passes; an any
// check passes only if some cell voted true.
type sweepCheck struct {
	name, detail string
	any          bool
}

// tally is one cell's record, index-addressed for the pool: its rows, its
// votes, and its terms of the sweep's summed and maximised scalars.
type tally struct {
	rows        []Row
	votes       []Check
	sums, maxes map[string]float64
}

func (t *tally) row(label string, cells ...any) {
	t.rows = append(t.rows, Row{Label: label, Cells: cells})
}

func (t *tally) vote(check string, ok bool) { t.votes = append(t.votes, Check{Name: check, Pass: ok}) }

func (t *tally) sum(name string, v float64) { t.sums[name] += v }

func (t *tally) max(name string, v float64) { t.maxes[name] = max(t.maxes[name], v) }

// run runs every cell through mapCells, then folds the tallies in cell
// order: rows append, sums and maxima fold from 0, and votes decide checks.
func (s sweep[C]) run(ctx context.Context, pool *Pool) (*Result, error) {
	tallies, err := mapCells(ctx, pool, s.seed, s.cells, func(c C, seed int64) (*tally, error) {
		t := &tally{sums: map[string]float64{}, maxes: map[string]float64{}}
		return t, s.cell(c, seed, t)
	})
	if err != nil {
		return nil, err
	}
	r := s.result
	at := make(map[string]int, len(s.checks))
	pass := make([]bool, len(s.checks))
	for i, c := range s.checks {
		at[c.name], pass[i] = i, !c.any
	}
	for _, t := range tallies {
		r.Rows = append(r.Rows, t.rows...)
		for _, v := range t.votes {
			i, ok := at[v.Name]
			if !ok {
				return nil, fmt.Errorf("%s: a cell voted on undeclared check %q", r.Name, v.Name)
			}
			// A false vote sticks on an every-cell check, a true one on an
			// any check.
			if v.Pass == s.checks[i].any {
				pass[i] = v.Pass
			}
		}
		for name, v := range t.sums {
			r.scalar(name, r.Scalars[name]+v)
		}
		for name, v := range t.maxes {
			r.scalar(name, max(r.Scalars[name], v))
		}
	}
	for i, c := range s.checks {
		r.check(c.name, pass[i], c.detail)
	}
	return &r, nil
}

// stampPayload returns the deterministic 4 KiB guest payload byte(i*mult)|1.
// No byte of it is zero, so a scrubbed page can never pass for it.
func stampPayload(mult int) []byte {
	p := make([]byte, 4*geometry.KiB)
	for i := range p {
		p[i] = byte(i*mult) | 1
	}
	return p
}

// guestHolds reports whether guest memory at gpa reads back as want.
func guestHolds(vm *core.VM, gpa uint64, want []byte) (bool, error) {
	got := make([]byte, len(want))
	if err := vm.ReadGuest(gpa, got); err != nil {
		return false, err
	}
	return bytes.Equal(got, want), nil
}

// guestNodeCapacity counts socket's guest-reserved nodes and reports one
// node's capacity (they are uniform), so pressure and feasibility can be
// expressed in whole subarray groups.
func guestNodeCapacity(h *core.Hypervisor, socket int) (nodes int, nodeBytes uint64, err error) {
	for _, n := range h.Topology().NodesOnSocket(socket, numa.GuestReserved) {
		a, err := h.Allocator(n.ID)
		if err != nil {
			return 0, 0, err
		}
		nodeBytes = a.TotalBytes()
		nodes++
	}
	return nodes, nodeBytes, nil
}

// admits probes whether the hypervisor would admit spec right now, leaving
// no VM behind.
func admits(h *core.Hypervisor, spec core.VMSpec) bool {
	if _, err := h.CreateVM(core.KVMProcess(), spec); err != nil {
		return false
	}
	return h.DestroyVM(spec.Name) == nil
}

// translations snapshots every 2 MiB guest page's GPA→HPA mapping.
func translations(vm *core.VM) (map[uint64]uint64, error) {
	out := make(map[uint64]uint64)
	for gpa := uint64(0); gpa < vm.Spec().MemoryBytes; gpa += geometry.PageSize2M {
		hpa, err := vm.TranslateUncached(gpa)
		if err != nil {
			return nil, err
		}
		out[gpa] = hpa
	}
	return out, nil
}

// retranslate re-walks a translations snapshot after hammering, counting
// walks that now fault and walks that silently resolve elsewhere.
func retranslate(vm *core.VM, before map[uint64]uint64) (faults, moved int) {
	for gpa, want := range before {
		hpa, err := vm.TranslateUncached(gpa)
		switch {
		case err != nil:
			faults++
		case hpa != want:
			moved++
		}
	}
	return faults, moved
}

// rowDefense builds one controller's activation-plane instance of spec, or
// nil when spec deploys none. The machine booted with the same spec, so it
// is already validated and the build cannot fail.
func rowDefense(spec mitigation.Spec, banks int, seed int64) mitigation.Mitigation {
	if !spec.HasRowDefense() {
		return nil
	}
	d, err := spec.RowDefense(banks, seed)
	if err != nil {
		return nil
	}
	return d
}

// hammerEPTBlock mounts the §7.1 attack on socket's guard-protected EPT
// block: it hammers the closest allocatable rows around the 32-row block
// (the rows just above it), then an unprotected control row of the same
// bank, so a flip-free block is a non-vacuous result.
func hammerEPTBlock(h *core.Hypervisor, socket, controlRow, acts int) error {
	eptNode, err := h.EPTNode(socket)
	if err != nil {
		return err
	}
	mem := h.Memory()
	ma, err := mem.Mapper().Decode(eptNode.Ranges[0].Start)
	if err != nil {
		return err
	}
	if err := hammerRows(mem, ma.Bank, []int{core.EPTBlockRowGroups, core.EPTBlockRowGroups + 1}, acts); err != nil {
		return err
	}
	return hammerRows(mem, ma.Bank, []int{controlRow}, acts)
}

// hammerRows activates each listed row of bank acts times, then closes the
// refresh window so the next aggressor set starts with a fresh budget.
func hammerRows(mem *dram.Memory, bank geometry.BankID, rows []int, acts int) error {
	t := &attack.PhysTarget{Mem: mem}
	for _, row := range rows {
		pa, err := mem.Mapper().Encode(geometry.MediaAddr{Bank: bank, Row: row})
		if err != nil {
			return err
		}
		if err := t.Hammer(attack.RowRef{Addr: pa, Bank: bank, Row: row}, acts, 0); err != nil {
			return err
		}
	}
	t.EndWindow()
	return nil
}
