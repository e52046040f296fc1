package main

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/attack"
	"repro/internal/dram"
	"repro/internal/geometry"
)

// inferTarget builds a fresh simulated single-socket DIMM and exposes the
// whole socket to the prober.
func inferTarget(g geometry.Geometry, prof dram.Profile) (*attack.PhysTarget, error) {
	mapper, err := addr.NewMapper(g, addr.KindSkylake)
	if err != nil {
		return nil, err
	}
	mem, err := dram.NewMemory(g, mapper, []dram.Profile{prof}, nil)
	if err != nil {
		return nil, err
	}
	return &attack.PhysTarget{
		Mem:    mem,
		Ranges: []attack.PhysRange{{Start: 0, End: uint64(g.SocketBytes())}},
	}, nil
}

// inferCmd runs the mFIT-style subarray size inference of §4.1 against a
// simulated DIMM: even without vendor cooperation, the true subarray size is
// revealed by the pattern of failed Rowhammer attacks at its multiples — the
// methodology Siloz's deployment relies on when DRAM vendors do not share
// subarray sizes.
//
// With -adjacency the command instead runs the attacker-side DRAMDig-style
// row-adjacency probe that precedes every lifecycle campaign: hammer a row
// believed to sit between two others and confirm the disturbance lands on
// exactly the predicted neighbors. Subarray-size inference needs boundary-
// spanning runs and is host-only; adjacency is what an in-VM attacker can
// confirm.
//
// -quick probes the minimum two boundaries per candidate, -ops overrides
// activations per aggressor, and -reps re-runs the inference on
// -parallel-pooled independent DIMMs (the size probe is deterministic, so
// -seed only varies -adjacency sampling).
func inferCmd(inv *invocation, args []string) error {
	trueSize := inv.fs.Int("true-size", 1024, "actual rows per subarray of the simulated DIMM")
	dimm := inv.fs.String("dimm", "A", "DIMM profile (A-F)")
	adjacency := inv.fs.Bool("adjacency", false, "run attacker-side row-adjacency inference instead of subarray size")
	pairs := inv.fs.Int("pairs", 8, "aggressor triples to probe per rep in -adjacency mode")
	inv.simFlags()
	if err := inv.parse(args); err != nil {
		return err
	}
	if err := inv.atLeast("pairs", *pairs, 1); err != nil {
		return err
	}

	prof, err := dimmProfile(*dimm)
	if err != nil {
		return err
	}
	// Give the probe a fully-vulnerable part so every boundary probe is
	// conclusive (real mFIT retries more boundaries instead).
	prof.VulnerableRowFraction = 1

	g := geometry.Geometry{
		Sockets: 1, CoresPerSocket: 4, DIMMsPerSocket: 1, RanksPerDIMM: 2,
		BanksPerRank: 8, RowsPerBank: 8192, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: *trueSize,
	}
	if err := g.Validate(); err != nil {
		return err
	}
	// Both modes share one shape: a probe that runs once per rep against a
	// fresh DIMM and reports a line and a verdict.
	var probe func(target *attack.PhysTarget, rep int) (report string, ok bool, err error)
	var pass, fail string
	if *adjacency {
		acts := int(4 * prof.HammerThreshold)
		if inv.ops > 0 {
			acts = inv.ops
		}
		fmt.Fprintf(inv.stdout, "probing DIMM %s row adjacency (%d triples/rep, %d acts)...\n",
			prof.Name, *pairs, acts)
		probe = func(target *attack.PhysTarget, rep int) (string, bool, error) {
			r, err := attack.InferAdjacency(target, acts, *pairs, 0xAA, attack.CampaignSeed(inv.seed, rep))
			if err != nil {
				return "", false, err
			}
			return fmt.Sprintf(": %d/%d neighbor pairs disturbed, row pitch %d", r.Confirmed, r.Probed, r.RowPitch),
				r.Confirmed > 0, nil
		}
		pass = "adjacency confirmed — the mapping hypothesis places neighbors correctly"
		fail = "adjacency NOT confirmed"
	} else {
		cfg := attack.DefaultInferenceConfig()
		if prof.TRRTableSize == 0 {
			cfg.Decoys = 0
		}
		if inv.quick {
			// Two probes is the floor: the inference demands at least two
			// conclusive boundary samples before accepting a candidate.
			cfg.ProbesPerCandidate = 2
		}
		if inv.ops > 0 {
			cfg.ActsPerAggressor = inv.ops
		}
		fmt.Fprintf(inv.stdout, "probing DIMM %s (TRR table %d, threshold %.0f, transforms %+v)...\n",
			prof.Name, prof.TRRTableSize, prof.HammerThreshold, prof.Transforms)
		probe = func(target *attack.PhysTarget, _ int) (string, bool, error) {
			got, err := attack.InferSubarraySize(target, cfg)
			return fmt.Sprintf(" inferred subarray size: %d rows (true: %d)", got, *trueSize), got == *trueSize, err
		}
		pass = "correct — failed attacks observed at every multiple of the true size (§4.1)"
		fail = "MISMATCH"
	}

	reps := inv.repCount()
	reports, verdicts := make([]string, reps), make([]bool, reps)
	ctx, cancel := inv.context()
	defer cancel()
	err = inv.pool().Map(ctx, reps, func(i int) error {
		target, err := inferTarget(g, prof)
		if err != nil {
			return err
		}
		reports[i], verdicts[i], err = probe(target, i)
		return err
	})
	if err != nil {
		return err
	}
	allOK := true
	for i, line := range reports {
		fmt.Fprintf(inv.stdout, "rep %d%s\n", i, line)
		allOK = allOK && verdicts[i]
	}
	if !allOK {
		fmt.Fprintln(inv.stdout, "RESULT:", fail)
		return errNegative
	}
	fmt.Fprintln(inv.stdout, "RESULT:", pass)
	return nil
}
