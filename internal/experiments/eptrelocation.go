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

// eptModeNames name the protection modes in the study's row labels.
var eptModeNames = map[ept.IntegrityMode]string{ept.NoProtection: "none", ept.GuardRows: "guardrows", ept.SecureEPT: "secure-ept"}

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
func runEPTReloc(ctx context.Context, run eptRelocRun, seed int64, t *tally) error {
	h, err := bootLab(migrationLabGeometry(), eptRelocProfile(), run.mode, core.ModeSiloz)
	if err != nil {
		return err
	}
	bootFree, err := eptPoolFree(h)
	if err != nil {
		return err
	}
	vm, err := h.CreateVM(core.KVMProcess(), core.VMSpec{
		Name: "reloc", Socket: 0, MemoryBytes: 64 * geometry.MiB,
	})
	if err != nil {
		return err
	}
	payload := eptRelocPayload(seed)
	if err := vm.WriteGuest(4321, payload); err != nil {
		return err
	}

	var relocatedPages int
	var reclaimedBytes uint64
	for m := 0; m < run.moves; m++ {
		target := 1 - vm.EPTSocket()
		dests, err := h.FreeNodes(target, vm.Spec().MemoryBytes)
		if err != nil {
			return err
		}
		rep, err := h.MigrateVM(ctx, "reloc", dests, core.MigrateOptions{
			MaxRounds: 8,
			StopPages: 8,
			GuestStep: func(round int) error {
				return vm.WriteGuest(uint64(round)*geometry.PageSize2M, []byte{byte(round)})
			},
		})
		if err != nil {
			return err
		}
		relocatedPages += rep.EPTRelocatedPages
		reclaimedBytes += rep.EPTReclaimedBytes
		// The 64 MiB hierarchy is at least root + PDPT + PD.
		t.vote("relocated_every_move", rep.EPTRelocatedPages >= 3)
		t.vote("isolation_audited", migrate.AuditIsolation(h) == nil)
	}

	// Every socket the VM left has its EPT pool back at its boot free-byte
	// count, and reclaimed bytes match the page count.
	final := vm.EPTSocket()
	reclaimed := reclaimedBytes == uint64(relocatedPages)*geometry.PageSize4K
	if run.mode == ept.GuardRows {
		now, err := eptPoolFree(h)
		if err != nil {
			return err
		}
		for socket, free := range bootFree {
			reclaimed = reclaimed && (socket == final || now[socket] == free)
		}
	}
	t.vote("source_ept_reclaimed", reclaimed)
	ok, err := guestHolds(vm, 4321, payload)
	intact := err == nil && ok
	t.vote("memory_intact", intact)

	// §7.1 re-run against the block the tables now live in.
	before, err := translations(vm)
	if err != nil {
		return err
	}
	mem := h.Memory()
	acts := int(eptRelocProfile().HammerThreshold) * 4
	var newBlockFlips, controlFlips, integrityFaults int
	var translationsOK bool
	switch run.mode {
	case ept.GuardRows:
		// The attack lands on the destination socket's block.
		if err := hammerEPTBlock(h, final, 40, acts); err != nil {
			return err
		}
		for _, f := range mem.Flips() {
			if f.Bank.Socket != final {
				continue
			}
			if f.MediaRow == core.EPTRowGroupOffset {
				newBlockFlips++
			}
			if f.MediaRow >= core.EPTBlockRowGroups {
				controlFlips++
			}
		}
		faults, moved := retranslate(vm, before)
		translationsOK = faults+moved == 0
		t.vote("new_block_flip_free", newBlockFlips == 0 && translationsOK)
		t.vote("control_rows_flipped", controlFlips > 0)
	case ept.SecureEPT:
		// The relocated tables live in ordinary host rows; hammer the
		// relocated PD's neighbours and require every corrupted walk to
		// fault on the freshly-minted MACs rather than resolve silently.
		pd := vm.Tables().Pages()[2] // root, PDPT, PD
		ma, err := mem.Mapper().Decode(pd)
		if err != nil {
			return err
		}
		var rows []int
		for _, row := range []int{ma.Row - 1, ma.Row + 1} {
			if row >= 0 && row < migrationLabGeometry().RowsPerBank {
				rows = append(rows, row)
			}
		}
		if err := hammerRows(mem, ma.Bank, rows, acts); err != nil {
			return err
		}
		// Corrupted walks must fault, never silently resolve differently.
		translationsOK = true
		var silent int
		integrityFaults, silent = retranslate(vm, before)
		t.vote("corruption_detected_not_silent", integrityFaults > 0 && silent == 0)
	}

	t.row(fmt.Sprintf("%s moves=%d", eptModeNames[run.mode], run.moves), run.moves, relocatedPages,
		reclaimedBytes/geometry.KiB, newBlockFlips, controlFlips, integrityFaults, intact && translationsOK)
	t.sum("relocated_pages", float64(relocatedPages))
	t.sum("reclaimed_bytes", float64(reclaimedBytes))
	t.sum("new_block_flips", float64(newBlockFlips))
	t.sum("integrity_faults", float64(integrityFaults))
	return nil
}

// eptRelocExp is the "ept-relocation" experiment.
func eptRelocExp(ctx context.Context, pool *Pool, rc eptRelocParams) (*Result, error) {
	r, err := sweep[eptRelocRun]{
		result: Result{
			Name:  "ept-relocation",
			Title: "EPT-table relocation across sockets (§5.4 pool placement, §7.1 re-run)",
			Columns: []string{
				"moves", "relocated pages", "reclaimed", "new-block flips",
				"control flips", "integrity faults", "intact",
			},
			Units:    []string{"", "", "KiB", "", "", "", ""},
			Metadata: map[string]string{"profile": eptRelocProfile().Name, "vm": "64 MiB"},
		},
		seed: rc.Seed,
		cells: grid(rc.Modes, rc.Moves, func(mode ept.IntegrityMode, moves int) eptRelocRun {
			return eptRelocRun{mode: mode, moves: moves}
		}),
		// The hammering phase's checks are per protection mode.
		checks: []sweepCheck{
			{name: "relocated_every_move", detail: "every cross-socket migration rebuilt the full table hierarchy"},
			{name: "source_ept_reclaimed", detail: "vacated sockets' EPT pools returned to their boot free-byte count"},
			{name: "isolation_audited", detail: "migrate.AuditIsolation passed after every move"},
			{name: "memory_intact", detail: "guest payload survived every migration sequence"},
			{name: "new_block_flip_free", detail: "%d flips reached relocated guard-protected blocks; translations intact"},
			{name: "control_rows_flipped", detail: "unprotected control rows flipped (hammering phase non-vacuous)", any: true},
			{name: "corruption_detected_not_silent", detail: "%d integrity faults on relocated SecureEPT tables, none silent"},
		},
		cell: func(run eptRelocRun, seed int64, t *tally) error { return runEPTReloc(ctx, run, seed, t) },
	}.run(ctx, pool)
	if err != nil {
		return nil, err
	}
	// Two details carry totals, known once every cell has run.
	r.Checks[4].Detail = fmt.Sprintf(r.Checks[4].Detail, int(r.Scalars["new_block_flips"]))
	r.Checks[6].Detail = fmt.Sprintf(r.Checks[6].Detail, int(r.Scalars["integrity_faults"]))
	return r, nil
}
