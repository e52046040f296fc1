package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/migrate"
	"repro/internal/numa"
)

// eptRelocParams parameterizes the "ept-relocation" experiment: after one or
// more cross-socket live migrations, are a VM's EPT tables rebuilt inside the
// destination socket's protected pool, is the source pool's capacity given
// back, and does the relocated block still resist the §7.1 in-block hammering
// attack?
type eptRelocParams struct {
	// Moves are the cross-socket migration counts swept. Odd counts leave
	// the VM (and its tables) on socket 1, even counts ping-pong it home.
	Moves []int
	// Modes are the EPT integrity modes swept. Guard rows exercise the
	// guard-protected EPT block (§5.4); SecureEPT exercises per-entry MAC
	// recomputation across the relocation.
	Modes []ept.IntegrityMode
	// Seed drives the guest's payload and dirtying pattern.
	Seed int64
}

// eptRelocConfig resolves the sweep: one to three migrations under both
// protection modes, a single move under -quick.
func eptRelocConfig(f Flags) eptRelocParams {
	cfg := eptRelocParams{
		Moves: []int{1, 2, 3},
		Modes: []ept.IntegrityMode{ept.GuardRows, ept.SecureEPT},
		Seed:  f.seed(23),
	}
	if f.Quick {
		cfg.Moves = []int{1}
	}
	return cfg
}

// eptRelocRun is one cell of the sweep.
type eptRelocRun struct {
	mode  ept.IntegrityMode
	moves int
}

func (r eptRelocRun) label() string {
	return fmt.Sprintf("%s moves=%d", eptModeName(r.mode), r.moves)
}

func eptModeName(m ept.IntegrityMode) string {
	switch m {
	case ept.GuardRows:
		return "guardrows"
	case ept.SecureEPT:
		return "secure-ept"
	default:
		return "none"
	}
}

// eptRelocRowResult is one completed cell, index-addressed for the pool.
type eptRelocRowResult struct {
	run eptRelocRun
	// RelocatedPages totals table pages rebuilt across all moves.
	relocatedPages int
	// reclaimedBytes totals source-pool bytes freed across all moves.
	reclaimedBytes uint64
	// relocatedEveryMove: each migration moved the full hierarchy (>= the
	// root, one PDPT and one PD page).
	relocatedEveryMove bool
	// sourceReclaimed: every socket the VM left has its EPT pool back at
	// its boot free-byte count, and reclaimed bytes match the page count.
	sourceReclaimed bool
	// auditOK: migrate.AuditIsolation passed after every move.
	auditOK bool
	// memoryIntact: the guest payload survived the whole sequence.
	memoryIntact bool
	// Guard-rows hammering phase (§7.1 against the NEW block).
	newBlockFlips  int
	controlFlips   int
	translationsOK bool
	// SecureEPT hammering phase: corrupted walks must fault, never
	// silently resolve differently.
	integrityFaults int
	silentCorrupt   int
}

// eptPoolFree snapshots each socket's EPT-pool free bytes (the EPT node
// under guard rows; relocation accounting under SecureEPT is validated
// through the migration reports instead, since tables then share the
// host-reserved pool).
func eptPoolFree(h *core.Hypervisor) (map[int]uint64, error) {
	out := map[int]uint64{}
	for _, n := range h.Topology().NodesOfKind(numa.EPTReserved) {
		a, err := h.Allocator(n.ID)
		if err != nil {
			return nil, err
		}
		out[n.Socket] = a.FreeBytes()
	}
	return out, nil
}

// eptRelocPayload is the guest payload a cell stamps before its migrations
// and reads back after them. It comes from stampPayload, so no seed — not
// even one that is 0 mod 256 — yields bytes a scrubbed or lost page would
// also read as.
func eptRelocPayload(seed int64) []byte { return stampPayload(int(seed)) }

// runEPTReloc executes one cell: boot, migrate cross-socket `moves` times,
// then re-run the §7.1 hammering attack against the relocated tables.
func runEPTReloc(ctx context.Context, run eptRelocRun, seed int64) (eptRelocRowResult, error) {
	res := eptRelocRowResult{run: run}
	h, err := bootLab(migrationLabGeometry(), eptRelocProfile(), run.mode, core.ModeSiloz)
	if err != nil {
		return res, err
	}
	bootFree, err := eptPoolFree(h)
	if err != nil {
		return res, err
	}
	vm, err := h.CreateVM(core.KVMProcess(), core.VMSpec{
		Name: "reloc", Socket: 0, MemoryBytes: 64 * geometry.MiB,
	})
	if err != nil {
		return res, err
	}
	payload := eptRelocPayload(seed)
	if err := vm.WriteGuest(4321, payload); err != nil {
		return res, err
	}

	res.relocatedEveryMove = true
	res.auditOK = true
	for m := 0; m < run.moves; m++ {
		target := 1 - vm.EPTSocket()
		dests, err := h.FreeNodes(target, vm.Spec().MemoryBytes)
		if err != nil {
			return res, err
		}
		rep, err := h.MigrateVM(ctx, "reloc", dests, core.MigrateOptions{
			MaxRounds: 8,
			StopPages: 8,
			GuestStep: func(round int) error {
				return vm.WriteGuest(uint64(round)*geometry.PageSize2M, []byte{byte(round)})
			},
		})
		if err != nil {
			return res, err
		}
		res.relocatedPages += rep.EPTRelocatedPages
		res.reclaimedBytes += rep.EPTReclaimedBytes
		// The 64 MiB hierarchy is at least root + PDPT + PD.
		if rep.EPTRelocatedPages < 3 {
			res.relocatedEveryMove = false
		}
		if err := migrate.AuditIsolation(h); err != nil {
			res.auditOK = false
		}
	}

	final := vm.EPTSocket()
	res.sourceReclaimed = res.reclaimedBytes == uint64(res.relocatedPages)*geometry.PageSize4K
	if run.mode == ept.GuardRows {
		now, err := eptPoolFree(h)
		if err != nil {
			return res, err
		}
		for socket, free := range bootFree {
			if socket != final && now[socket] != free {
				res.sourceReclaimed = false
			}
		}
	}
	if ok, err := guestHolds(vm, 4321, payload); err == nil && ok {
		res.memoryIntact = true
	}

	// §7.1 re-run against the block the tables now live in.
	before, err := translations(vm)
	if err != nil {
		return res, err
	}
	mem := h.Memory()
	acts := int(eptRelocProfile().HammerThreshold) * 4
	switch run.mode {
	case ept.GuardRows:
		// The attack lands on the destination socket's block.
		if err := hammerEPTBlock(h, final, 40, acts); err != nil {
			return res, err
		}
		for _, f := range mem.Flips() {
			if f.Bank.Socket != final {
				continue
			}
			if f.MediaRow == core.EPTRowGroupOffset {
				res.newBlockFlips++
			}
			if f.MediaRow >= core.EPTBlockRowGroups {
				res.controlFlips++
			}
		}
		faults, moved := retranslate(vm, before)
		res.translationsOK = faults+moved == 0
	case ept.SecureEPT:
		// The relocated tables live in ordinary host rows; hammer the
		// relocated PD's neighbours and require every corrupted walk to
		// fault on the freshly-minted MACs rather than resolve silently.
		pd := vm.Tables().Pages()[2] // root, PDPT, PD
		ma, err := mem.Mapper().Decode(pd)
		if err != nil {
			return res, err
		}
		var rows []int
		for _, row := range []int{ma.Row - 1, ma.Row + 1} {
			if row >= 0 && row < migrationLabGeometry().RowsPerBank {
				rows = append(rows, row)
			}
		}
		if err := hammerRows(mem, ma.Bank, rows, acts); err != nil {
			return res, err
		}
		res.translationsOK = true
		res.integrityFaults, res.silentCorrupt = retranslate(vm, before)
	}
	return res, nil
}

// eptRelocExp is the "ept-relocation" experiment.
func eptRelocExp(ctx context.Context, pool *Pool, rc eptRelocParams) (*Result, error) {
	runs := grid(rc.Modes, rc.Moves, func(mode ept.IntegrityMode, moves int) eptRelocRun {
		return eptRelocRun{mode: mode, moves: moves}
	})
	results, err := mapCells(ctx, pool, rc.Seed, runs, func(run eptRelocRun, seed int64) (eptRelocRowResult, error) {
		return runEPTReloc(ctx, run, seed)
	})
	if err != nil {
		return nil, err
	}

	r := &Result{
		Name:  "ept-relocation",
		Title: "EPT-table relocation across sockets (§5.4 pool placement, §7.1 re-run)",
		Columns: []string{
			"moves", "relocated pages", "reclaimed", "new-block flips",
			"control flips", "integrity faults", "intact",
		},
		Units:    []string{"", "", "KiB", "", "", "", ""},
		Metadata: map[string]string{"profile": eptRelocProfile().Name, "vm": "64 MiB"},
	}
	// The hammering phase's checks are per protection mode.
	var guard, secure []eptRelocRowResult
	var totalPages int
	var totalBytes uint64
	var totalNewFlips, totalFaults int
	for _, res := range results {
		r.row(res.run.label(), res.run.moves, res.relocatedPages, res.reclaimedBytes/geometry.KiB,
			res.newBlockFlips, res.controlFlips, res.integrityFaults,
			res.memoryIntact && res.translationsOK)
		totalPages += res.relocatedPages
		totalBytes += res.reclaimedBytes
		totalNewFlips += res.newBlockFlips
		totalFaults += res.integrityFaults
		switch res.run.mode {
		case ept.GuardRows:
			guard = append(guard, res)
		case ept.SecureEPT:
			secure = append(secure, res)
		}
	}
	r.scalar("relocated_pages", float64(totalPages))
	r.scalar("reclaimed_bytes", float64(totalBytes))
	r.scalar("new_block_flips", float64(totalNewFlips))
	r.scalar("integrity_faults", float64(totalFaults))
	r.check("relocated_every_move", allCells(results, func(c eptRelocRowResult) bool { return c.relocatedEveryMove }),
		"every cross-socket migration rebuilt the full table hierarchy")
	r.check("source_ept_reclaimed", allCells(results, func(c eptRelocRowResult) bool { return c.sourceReclaimed }),
		"vacated sockets' EPT pools returned to their boot free-byte count")
	r.check("isolation_audited", allCells(results, func(c eptRelocRowResult) bool { return c.auditOK }),
		"migrate.AuditIsolation passed after every move")
	r.check("memory_intact", allCells(results, func(c eptRelocRowResult) bool { return c.memoryIntact }),
		"guest payload survived every migration sequence")
	r.check("new_block_flip_free", allCells(guard, func(c eptRelocRowResult) bool { return c.newBlockFlips == 0 && c.translationsOK }),
		fmt.Sprintf("%d flips reached relocated guard-protected blocks; translations intact", totalNewFlips))
	r.check("control_rows_flipped", anyCell(guard, func(c eptRelocRowResult) bool { return c.controlFlips > 0 }),
		"unprotected control rows flipped (hammering phase non-vacuous)")
	r.check("corruption_detected_not_silent", allCells(secure, func(c eptRelocRowResult) bool { return c.integrityFaults > 0 && c.silentCorrupt == 0 }),
		fmt.Sprintf("%d integrity faults on relocated SecureEPT tables, none silent", totalFaults))
	return r, nil
}
