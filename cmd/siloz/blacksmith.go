package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/experiments"
	"repro/internal/geometry"
	"repro/internal/mitigation"
)

// blacksmithReport is the machine-readable campaign summary (-json), one
// per rep.
type blacksmithReport struct {
	Mode              string `json:"mode"`
	Mitigation        string `json:"mitigation"`
	DIMM              string `json:"dimm"`
	Rep               int    `json:"rep"`
	Seed              int64  `json:"seed"`
	PatternsTried     int    `json:"patterns_tried"`
	EffectivePatterns int    `json:"effective_patterns"`
	Corruptions       int    `json:"corruptions"`
	BestPattern       string `json:"best_pattern,omitempty"`
	FlipsInAttacker   int    `json:"flips_in_attacker"`
	FlipsInVictim     int    `json:"flips_in_victim"`
	FlipsInGuards     int    `json:"flips_in_guards,omitempty"`
	FlipsElsewhere    int    `json:"flips_elsewhere"`
	Contained         bool   `json:"contained"`
	Refreshes         int    `json:"refreshes,omitempty"`
	BlockedMiB        uint64 `json:"blocked_mib,omitempty"`
}

// dimmProfile looks an evaluation DIMM up by its letter.
func dimmProfile(name string) (dram.Profile, error) {
	for _, p := range dram.EvaluationProfiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return dram.Profile{}, fmt.Errorf("unknown DIMM %q (want A-F)", name)
}

// blacksmithCmd runs the extended Blacksmith Rowhammer fuzzer (§7) from
// inside a tenant VM against a machine that deploys the -mitigation defense
// (Siloz by default; none is the unmodified baseline), then reports both the
// attacker's view (corruptions it can read back), the omniscient ground
// truth (where every bit flip physically landed) and the defense's overhead
// ledger. Flips absorbed by guard capacity count as contained.
//
// With -reps N the whole campaign repeats N times on independent
// hypervisors, each seeded from -seed and the repetition index; -ops
// overrides the hammer budget per refresh window.
func blacksmithCmd(inv *invocation, args []string) error {
	mitFlag := inv.fs.String("mitigation", "siloz", "Rowhammer defense the machine deploys: none, para, silver-bullet, catt, or siloz")
	dimm := inv.fs.String("dimm", "A", "DIMM profile to populate the server with (A-F)")
	patterns := inv.fs.Int("patterns", 40, "fuzzing patterns to try")
	windows := inv.fs.Int("windows", 2, "refresh windows hammered per pattern")
	vmGiB := inv.fs.Int("vm-gib", 6, "attacker VM memory in GiB")
	inv.simFlags()
	inv.jsonFlag()
	if err := inv.parse(args); err != nil {
		return err
	}
	if err := inv.atLeast("vm-gib", *vmGiB, 1); err != nil {
		return err
	}

	prof, err := dimmProfile(*dimm)
	if err != nil {
		return err
	}
	k, err := mitigation.ParseKind(*mitFlag)
	if err != nil {
		return err
	}
	machine := core.Config{
		Profiles:      []dram.Profile{prof},
		EPTProtection: ept.GuardRows,
		Mitigation:    mitigation.Spec{Kind: k, Seed: inv.seed},
	}
	// The deployed defense decides the hypervisor mode.
	mode := core.ModeBaseline
	if machine.Mitigation.IsolatesSubarrayGroups() {
		mode = core.ModeSiloz
	}
	if inv.quick {
		*patterns, *windows = 10, 1
	}
	// -ops overrides the hammer budget per refresh window.
	maxActs := prof.MaxActsPerWindow * 9 / 10
	if inv.ops > 0 {
		maxActs = inv.ops
	}
	reps := inv.repCount()
	if !inv.json {
		fmt.Fprintf(inv.stdout, "hypervisor: %s, mitigation %s, DIMM profile %s, attacker VM %d GiB, victim VM %d GiB, %d rep(s)\n",
			mode, machine.Mitigation.Name(), prof.Name, *vmGiB, *vmGiB, reps)
	}

	ctx, cancel := inv.context()
	defer cancel()
	reports := make([]blacksmithReport, reps)
	err = inv.pool().Map(ctx, reps, func(i int) error {
		seed := experiments.RepSeed(inv.seed, i)
		res, fuzz, err := attack.RunBlacksmithTrial(attack.BlacksmithTrialConfig{
			Core:    machine,
			Mode:    mode,
			VMBytes: uint64(*vmGiB) * geometry.GiB,
			Fuzzer: attack.FuzzerConfig{
				Patterns:          *patterns,
				WindowsPerPattern: *windows,
				MaxActsPerWindow:  maxActs,
				FillPattern:       0xAA,
				Seed:              seed,
			},
		})
		if err != nil {
			return err
		}
		reports[i] = blacksmithReport{
			Mode: mode.String(), Mitigation: res.Kind, DIMM: prof.Name, Rep: i, Seed: seed,
			PatternsTried:     fuzz.PatternsTried,
			EffectivePatterns: fuzz.EffectivePatterns,
			Corruptions:       len(fuzz.Corruptions),
			BestPattern:       fuzz.BestPattern,
			FlipsInAttacker:   res.AttackerFlips,
			FlipsInVictim:     res.VictimFlips,
			FlipsInGuards:     res.GuardFlips,
			FlipsElsewhere:    res.StrayFlips,
			Contained:         res.Escapes() == 0,
			Refreshes:         res.Refreshes,
			BlockedMiB:        res.BlockedBytes / geometry.MiB,
		}
		return nil
	})
	if err != nil {
		return err
	}

	contained := true
	enc := json.NewEncoder(inv.stdout)
	enc.SetIndent("", "  ")
	for _, rep := range reports {
		contained = contained && rep.Contained
		if inv.json {
			if err := enc.Encode(rep); err != nil {
				return err
			}
			continue
		}
		fmt.Fprintf(inv.stdout, "rep %d attacker view: %d/%d patterns effective, %d corruptions observed (first: %s)\n",
			rep.Rep, rep.EffectivePatterns, rep.PatternsTried, rep.Corruptions, rep.BestPattern)
		fmt.Fprintf(inv.stdout, "rep %d ground truth:  %d flips in attacker domain, %d in victim, %d in guard capacity, %d elsewhere (host)\n",
			rep.Rep, rep.FlipsInAttacker, rep.FlipsInVictim, rep.FlipsInGuards, rep.FlipsElsewhere)
		fmt.Fprintf(inv.stdout, "rep %d overhead:      %d defense refreshes, %d MiB capacity blocked\n",
			rep.Rep, rep.Refreshes, rep.BlockedMiB)
	}
	switch {
	case !contained:
		if !inv.json {
			fmt.Fprintln(inv.stdout, "RESULT: inter-VM Rowhammer SUCCEEDED — isolation violated")
		}
		return errNegative
	case !inv.json:
		fmt.Fprintln(inv.stdout, "RESULT: all flips contained to the attacker's own memory and sacrificial guard capacity")
	}
	return nil
}
