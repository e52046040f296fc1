package experiments

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/subarray"
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

// table3ShardsPerDIMM is how many bank campaigns Table 3 runs per DIMM
// profile: banks on both ranks of the DIMM under test (§7.1 observes flips
// "across ranks and banks in the DIMMs").
const table3ShardsPerDIMM = 3

// table3BankIndex returns the socket-flat bank index shard bi attacks on
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

// table3Exp is the "table3" experiment, Table 3: the §7.1
// hammering-containment run. On each of the six DIMM profiles a Blacksmith
// campaign is pinned to one Siloz subarray group; every resulting flip is
// classified as inside or outside the group (outside must be 0 under Siloz),
// beside the corruptions the attacker itself saw and the distinct ranks and
// banks that flipped (§7.1 reports flips "across ranks and banks").
//
// The campaign is sharded per (DIMM, bank) — DIMMs × table3ShardsPerDIMM
// independent units on one pool.Map — rather than per DIMM, so a wide pool
// keeps every worker busy instead of serializing the three bank campaigns
// inside each DIMM. Each shard boots its own hypervisor; because simulated
// disturbance is per-bank and the shards attack distinct banks, the flips a
// shard produces are identical to those the same campaign produces on a
// shared image, and the fixed-order merge below reassembles per-DIMM rows
// byte-identically at any pool width (seeds are cfg.Seed + dimmIdx*17 + bi,
// unchanged from the per-DIMM formulation).
func table3Exp(ctx context.Context, pool *Pool, cfg SecurityConfig) (*Result, error) {
	profiles := dram.EvaluationProfiles()
	g := cfg.Geometry

	shards := make([]attack.BankShard, 0, len(profiles)*table3ShardsPerDIMM)
	for dimmIdx, prof := range profiles {
		for bi := 0; bi < table3ShardsPerDIMM; bi++ {
			shards = append(shards, attack.BankShard{
				Tag:              prof.Name,
				BankIndex:        table3BankIndex(g, dimmIdx, bi),
				Seed:             cfg.Seed + int64(dimmIdx)*17 + int64(bi),
				MaxActsPerWindow: prof.MaxActsPerWindow * 9 / 10,
			})
		}
	}

	// Per-shard machine state, filled by newTarget and read back for flip
	// classification after the campaigns finish.
	type shardMachine struct {
		mem *dram.Memory
		grp *subarray.Group
	}
	machines := make([]shardMachine, len(shards))

	newTarget := func(i int, s attack.BankShard) (attack.Target, error) {
		dimmIdx := i / table3ShardsPerDIMM
		h, err := bootLab(g, profiles[dimmIdx], ept.GuardRows, core.ModeSiloz)
		if err != nil {
			return nil, err
		}
		// Pin the fuzzer to one guest subarray group, targeting a bank
		// on the DIMM under test.
		grp := h.Layout().Group(0, 1+dimmIdx%(h.Layout().GroupsPerSocket()-1))
		var ranges []attack.PhysRange
		for _, r := range grp.Ranges {
			ranges = append(ranges, attack.PhysRange{Start: r.Start, End: r.End})
		}
		machines[i] = shardMachine{mem: h.Memory(), grp: grp}
		return &attack.PhysTarget{
			Mem:       h.Memory(),
			Ranges:    ranges,
			BankIndex: s.BankIndex,
		}, nil
	}

	campaign := attack.FuzzerConfig{
		Patterns:          cfg.Patterns,
		WindowsPerPattern: cfg.Windows,
		FillPattern:       0xAA,
	}
	reports, err := attack.RunSharded(ctx, campaign, shards, newTarget, pool.Map)
	if err != nil {
		return nil, err
	}

	r := &Result{
		Name:    "table3",
		Title:   "Table 3: observed bit flips vs. the hammering domain's subarray group (§7.1)",
		Columns: []string{"inside group", "outside group", "attacker observed", "ranks w/ flips", "banks w/ flips"},
	}
	// Fixed-order merge: shard order is (dimm, bank) lexicographic, so the
	// per-DIMM rows come out identical regardless of scheduling.
	var inside, outside int
	for dimmIdx, prof := range profiles {
		var flipsInside, flipsOutside, observed int
		ranksHit := map[int]bool{}
		banksHit := map[geometry.BankID]bool{}
		for bi := 0; bi < table3ShardsPerDIMM; bi++ {
			i := dimmIdx*table3ShardsPerDIMM + bi
			observed += len(reports[i].Report.Corruptions)
			m := machines[i]
			for _, f := range m.mem.Flips() {
				pa, err := m.mem.FlipPhys(f)
				if err != nil {
					return nil, err
				}
				if m.grp.Contains(pa) {
					flipsInside++
					ranksHit[f.Bank.Rank] = true
					banksHit[f.Bank] = true
				} else {
					flipsOutside++
				}
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
