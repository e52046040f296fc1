package experiments

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
)

// SecurityConfig parameterizes the §7.1 experiments.
type SecurityConfig struct {
	// Geometry of the simulated server.
	Geometry geometry.Geometry
	// Patterns per DIMM for the fuzzing campaign.
	Patterns int
	// Windows hammered per pattern ("leaving the system running", §7.1).
	Windows int
	// Seed drives the fuzzer.
	Seed int64
}

// securityConfig resolves the §7.1 parameters: the campaign is sized like
// one unit of the paper's 24-hour run, on the paper's server at any scale.
func securityConfig(f Flags) SecurityConfig {
	return SecurityConfig{
		Geometry: geometry.Default(),
		Patterns: override(f.Patterns, 40),
		Windows:  2,
		Seed:     f.seed(7),
	}
}

// table3BanksPerDIMM is how many bank campaigns Table 3 runs per DIMM
// profile: banks on both ranks of the DIMM under test (§7.1 observes flips
// "across ranks and banks in the DIMMs").
const table3BanksPerDIMM = 3

// table3BankIndex returns the socket-flat bank index campaign bi attacks on
// the DIMM under test.
func table3BankIndex(g geometry.Geometry, dimmIdx, bi int) int {
	dimm := dimmIdx % g.DIMMsPerSocket
	switch bi {
	case 0:
		return dimm * g.BanksPerDIMM() // rank 0, bank 0
	case 1:
		return dimm*g.BanksPerDIMM() + g.BanksPerRank // rank 1, bank 0
	default:
		return dimm*g.BanksPerDIMM() + g.BanksPerRank/2 // rank 0, mid bank
	}
}

// table3Cell is one (DIMM, bank) campaign of Table 3.
type table3Cell struct{ dimmIdx, bi int }

// table3Flips classifies one campaign's flips against the hammering domain's
// subarray group; banks holds the bank of every flip inside it.
type table3Flips struct {
	inside, outside, observed int
	banks                     []geometry.BankID
}

// table3Exp is the "table3" experiment, Table 3: the §7.1
// hammering-containment run. On each of the six DIMM profiles a Blacksmith
// campaign is pinned to one Siloz subarray group; every resulting flip is
// classified as inside or outside the group (outside must be 0 under Siloz),
// beside the corruptions the attacker itself saw and the distinct ranks and
// banks that flipped (§7.1 reports flips "across ranks and banks").
//
// The campaign runs per (DIMM, bank) — DIMMs × table3BanksPerDIMM cells on
// the pool — rather than per DIMM, so a wide pool keeps every worker busy
// instead of serializing the three bank campaigns inside each DIMM. Each
// cell boots its own hypervisor; because simulated disturbance is per-bank
// and the cells attack distinct banks, the flips a cell produces are those
// the same campaign produces on a shared image, and the fixed-order merge
// below reassembles per-DIMM rows byte-identically at any pool width (seeds
// are cfg.Seed + dimmIdx*17 + bi, unchanged from the per-DIMM formulation).
func table3Exp(ctx context.Context, pool *Pool, cfg SecurityConfig) (*Result, error) {
	profiles := dram.EvaluationProfiles()
	g := cfg.Geometry
	cells := make([]table3Cell, 0, len(profiles)*table3BanksPerDIMM)
	for d := range profiles {
		for bi := 0; bi < table3BanksPerDIMM; bi++ {
			cells = append(cells, table3Cell{d, bi})
		}
	}

	flips, err := mapCells(ctx, pool, cfg.Seed, cells, func(c table3Cell, _ int64) (table3Flips, error) {
		var out table3Flips
		prof := profiles[c.dimmIdx]
		h, err := bootLab(g, prof, ept.GuardRows, core.ModeSiloz)
		if err != nil {
			return out, err
		}
		// Pin the fuzzer to one guest subarray group, targeting a bank on
		// the DIMM under test.
		grp := h.Layout().Group(0, 1+c.dimmIdx%(h.Layout().GroupsPerSocket()-1))
		var ranges []attack.PhysRange
		for _, r := range grp.Ranges {
			ranges = append(ranges, attack.PhysRange{Start: r.Start, End: r.End})
		}
		rep, err := attack.NewFuzzer(attack.FuzzerConfig{
			Patterns:          cfg.Patterns,
			WindowsPerPattern: cfg.Windows,
			MaxActsPerWindow:  prof.MaxActsPerWindow * 9 / 10,
			FillPattern:       0xAA,
			Seed:              cfg.Seed + int64(c.dimmIdx)*17 + int64(c.bi),
		}).Run(&attack.PhysTarget{
			Mem:       h.Memory(),
			Ranges:    ranges,
			BankIndex: table3BankIndex(g, c.dimmIdx, c.bi),
		})
		if err != nil {
			return out, fmt.Errorf("table3: %s bank campaign %d: %w", prof.Name, c.bi, err)
		}
		out.observed = len(rep.Corruptions)
		for _, f := range h.Memory().Flips() {
			pa, err := h.Memory().FlipPhys(f)
			if err != nil {
				return out, err
			}
			if grp.Contains(pa) {
				out.inside++
				out.banks = append(out.banks, f.Bank)
			} else {
				out.outside++
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	r := &Result{
		Name:    "table3",
		Title:   "Table 3: observed bit flips vs. the hammering domain's subarray group (§7.1)",
		Columns: []string{"inside group", "outside group", "attacker observed", "ranks w/ flips", "banks w/ flips"},
	}
	// Fixed-order merge: cells are (dimm, bank) row-major, so the per-DIMM
	// rows come out identical regardless of scheduling.
	var inside, outside int
	for dimmIdx, prof := range profiles {
		var flipsInside, flipsOutside, observed int
		ranksHit := map[int]bool{}
		banksHit := map[geometry.BankID]bool{}
		for _, f := range flips[dimmIdx*table3BanksPerDIMM : (dimmIdx+1)*table3BanksPerDIMM] {
			flipsInside += f.inside
			flipsOutside += f.outside
			observed += f.observed
			for _, b := range f.banks {
				ranksHit[b.Rank] = true
				banksHit[b] = true
			}
		}
		r.row(prof.Name, flipsInside, flipsOutside, observed, len(ranksHit), len(banksHit))
		inside += flipsInside
		outside += flipsOutside
	}
	r.scalar("flips_inside", float64(inside))
	r.scalar("flips_outside", float64(outside))
	r.check("contained", outside == 0, "no flip escaped any subarray group")
	return r, nil
}

// eptExp is the "ept" experiment, the §7.1 EPT bit-flip prevention run on the
// default evaluation server: hammering groups of 32 consecutive rows
// protected per Siloz's mitigation vs. unprotected row groups in the same
// subarray group. Flips landing in the protected row must be 0, the
// unprotected control rows must flip, and the VM's EPT mappings must survive.
func eptExp(ctx context.Context, pool *Pool, cfg SecurityConfig) (*Result, error) {
	return onPool(ctx, pool, func() (*Result, error) {
		prof := dram.ProfileD() // most susceptible part
		prof.VulnerableRowFraction = 1
		h, err := bootLab(cfg.Geometry, prof, ept.GuardRows, core.ModeSiloz)
		if err != nil {
			return nil, err
		}
		vm, err := h.CreateVM(core.KVMProcess(), core.VMSpec{
			Name: "probe", Socket: 0,
			MemoryBytes: uint64(h.Layout().GroupBytes()),
		})
		if err != nil {
			return nil, err
		}
		before, err := translations(vm)
		if err != nil {
			return nil, err
		}

		// The control row, 100, is host-group interior in the same subarray
		// group as the block.
		if err := hammerEPTBlock(h, 0, 100, int(prof.HammerThreshold)*4); err != nil {
			return nil, err
		}
		var protected, unprotected int
		for _, f := range h.Memory().Flips() {
			if f.MediaRow < core.EPTBlockRowGroups {
				if f.MediaRow == core.EPTRowGroupOffset {
					protected++
				}
				// Flips in offlined guard rows are harmless by design.
				continue
			}
			unprotected++
		}
		faults, moved := retranslate(vm, before)

		r := &Result{Name: "ept", Title: "EPT bit-flip prevention (§7.1)"}
		r.scalar("protected_flips", float64(protected))
		r.scalar("unprotected_flips", float64(unprotected))
		r.check("protected_rows_flip_free", protected == 0,
			fmt.Sprintf("%d flips in protected 32-row blocks", protected))
		r.check("translations_intact", faults+moved == 0, "EPT mappings survived hammering")
		r.check("control_rows_flipped", unprotected > 0,
			fmt.Sprintf("%d flips in unprotected control rows (experiment non-vacuous)", unprotected))
		return r, nil
	})
}
