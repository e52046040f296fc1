// EPTguard: demonstrates why extended page table integrity is load-bearing
// for DRAM isolation (§5.4), by attacking a VM's own EPTs under the three
// protection modes:
//
//   - no protection (baseline): a flipped EPT entry silently redirects the
//     guest to host physical memory it was never given — a full escape;
//   - secure EPT (TDX/SNP-style): the corruption is detected on walk and the
//     VM faults instead of escaping;
//   - guard rows (Siloz on legacy hardware): table pages live in a 32-row
//     guarded block, so the flips never happen at all.
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/internal/addr"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
)

// hammerProfile makes every row weak so the attack is deterministic.
func hammerProfile() dram.Profile {
	p := dram.ProfileF()
	p.VulnerableRowFraction = 1
	p.WeakCellsPerRow = 4000
	p.HammerThreshold = 8000
	return p
}

// attackEPT hammers the rows next to the VM's page-directory page, then
// re-walks every mapping and classifies the outcome.
func attackEPT(mode core.Mode, protection ept.IntegrityMode) (string, error) {
	hv, err := core.Boot(core.Config{
		Profiles:      []dram.Profile{hammerProfile()},
		EPTProtection: protection,
	}, mode)
	if err != nil {
		return "", err
	}
	vm, err := hv.CreateVM(core.Process{KVMPrivileged: true},
		core.VMSpec{Name: "victim-of-self", Socket: 0, MemoryBytes: 3 * geometry.GiB})
	if err != nil {
		return "", err
	}
	before := map[uint64]uint64{}
	for gpa := uint64(0); gpa < vm.Spec().MemoryBytes; gpa += geometry.PageSize2M {
		hpa, err := vm.TranslateUncached(gpa)
		if err != nil {
			return "", err
		}
		before[gpa] = hpa
	}

	// Hammer the rows *internally* adjacent to the first page-directory
	// page: like Blacksmith, the attacker accounts for the DIMM's row
	// scrambling/mirroring (§6) when picking aggressor media rows. Under
	// guard-row protection the nearest attacker-reachable rows are the
	// block boundary instead.
	mem := hv.Memory()
	pd := vm.Tables().Pages()[2]
	ma, err := mem.Mapper().Decode(pd)
	if err != nil {
		return "", err
	}
	im := hv.InternalMapperFor(ma.Bank.Socket, ma.Bank.DIMM)
	g := hv.Layout().Geometry()
	// The entry's half-row side depends on its column within the row.
	side := addr.SideA
	if ma.Col >= g.RowBytes/2 {
		side = addr.SideB
	}
	pdInternal := im.InternalRow(ma.Bank, ma.Row, side)
	var rows []int
	for _, internal := range []int{pdInternal - 1, pdInternal + 1} {
		if internal >= 0 && internal < g.RowsPerBank {
			rows = append(rows, im.MediaRow(ma.Bank, internal, side))
		}
	}
	if protection == ept.GuardRows {
		rows = []int{core.EPTBlockRowGroups, core.EPTBlockRowGroups + 1}
	}
	attacker := &attack.PhysTarget{Mem: mem}
	for _, row := range rows {
		if row < 0 {
			continue
		}
		pa, err := mem.Mapper().Encode(geometry.MediaAddr{Bank: ma.Bank, Row: row, Col: 0})
		if err != nil {
			return "", err
		}
		if err := attacker.Hammer(attack.RowRef{Addr: pa, Bank: ma.Bank, Row: row}, 40_000, 0); err != nil {
			return "", err
		}
	}

	redirected, faulted := 0, 0
	for gpa, want := range before {
		hpa, err := vm.TranslateUncached(gpa)
		switch {
		case errors.Is(err, ept.ErrIntegrity):
			faulted++
		case err != nil:
			faulted++
		case hpa != want:
			redirected++
		}
	}
	switch {
	case redirected > 0:
		return fmt.Sprintf("ESCAPE: %d mappings silently redirected outside the VM's allocation", redirected), nil
	case faulted > 0:
		return fmt.Sprintf("DETECTED: %d walks faulted with integrity errors (no escape, VM killed)", faulted), nil
	default:
		return "PREVENTED: all mappings intact — the guarded block absorbed the attack", nil
	}
}

func main() {
	log.SetFlags(0)
	cases := []struct {
		label      string
		mode       core.Mode
		protection ept.IntegrityMode
	}{
		{"baseline, unprotected EPTs", core.ModeBaseline, ept.NoProtection},
		{"siloz + secure EPT (TDX/SNP)", core.ModeSiloz, ept.SecureEPT},
		{"siloz + guard rows (§5.4)", core.ModeSiloz, ept.GuardRows},
	}
	for _, c := range cases {
		verdict, err := attackEPT(c.mode, c.protection)
		if err != nil {
			log.Fatalf("%s: %v", c.label, err)
		}
		fmt.Printf("%-30s -> %s\n", c.label, verdict)
	}
}
