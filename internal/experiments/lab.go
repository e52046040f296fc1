package experiments

import (
	"bytes"
	"context"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/mitigation"
	"repro/internal/numa"
)

// This file holds the scaffolding the lifecycle experiments share: the lab
// machine, guest payload stamping and verification, node capacity and
// admission probes, and the cell-grid fan-out. Plain helpers — each
// experiment still reads top to bottom as boot, act, measure, check.

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

// bootLab boots the lab box populated with one DIMM profile.
func bootLab(prof dram.Profile, prot ept.IntegrityMode, mode core.Mode) (*core.Hypervisor, error) {
	return core.Boot(core.Config{
		Geometry:      migrationLabGeometry(),
		Profiles:      []dram.Profile{prof},
		EPTProtection: prot,
	}, mode)
}

// onPool runs a monolithic study under one worker slot, so a width-1 pool
// serializes it against other experiments' work.
func onPool[T any](ctx context.Context, pool *Pool, study func() (T, error)) (T, error) {
	var out T
	err := pool.Run(ctx, func() error {
		var err error
		out, err = study()
		return err
	})
	return out, err
}

// mapCells runs one task per cell of an experiment's sweep grid on the pool
// and returns the results by cell index — the collection order that makes
// every sweep byte-identical at any pool width.
func mapCells[C, R any](ctx context.Context, pool *Pool, cells []C, task func(i int, c C) (R, error)) ([]R, error) {
	out := make([]R, len(cells))
	err := pool.Map(ctx, len(cells), func(i int) error {
		var err error
		out[i], err = task(i, cells[i])
		return err
	})
	return out, err
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
	for _, row := range rows {
		pa, err := mem.Mapper().Encode(geometry.MediaAddr{Bank: bank, Row: row})
		if err != nil {
			return err
		}
		if err := mem.ActivatePhys(pa, acts, 0); err != nil {
			return err
		}
	}
	mem.Refresh()
	return nil
}
