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
	Mitigation        string `json:"mitigation,omitempty"`
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
// inside a tenant VM against a Siloz or baseline hypervisor, then reports
// both the attacker's view (corruptions it can read back) and the omniscient
// ground truth (where every bit flip physically landed).
//
// With -reps N the whole campaign repeats N times on independent
// hypervisors, each seeded from -seed and the repetition index; -ops
// overrides the hammer budget per refresh window. With -mitigation, the
// machine deploys the named Rowhammer defense and the hypervisor mode follows
// it; the report gains the defense's overhead ledger, and flips absorbed by
// guard capacity count as contained.
func blacksmithCmd(inv *invocation, args []string) error {
	modeFlag := inv.fs.String("mode", "siloz", "hypervisor under attack: siloz or baseline")
	mitFlag := inv.fs.String("mitigation", "", "deploy a Rowhammer defense instead of -mode: none, para, silver-bullet, catt, or siloz")
	dimm := inv.fs.String("dimm", "A", "DIMM profile to populate the server with (A-F)")
	patterns := inv.fs.Int("patterns", 40, "fuzzing patterns to try")
	windows := inv.fs.Int("windows", 2, "refresh windows hammered per pattern")
	vmGiB := inv.fs.Int("vm-gib", 6, "attacker VM memory in GiB")
	inv.simFlags()
	inv.jsonFlag()
	if err := inv.parse(args); err != nil {
		return err
	}

	mode := core.ModeSiloz
	switch *modeFlag {
	case "siloz":
	case "baseline":
		mode = core.ModeBaseline
	default:
		return fmt.Errorf("unknown mode %q", *modeFlag)
	}
	prof, err := dimmProfile(*dimm)
	if err != nil {
		return err
	}
	machine := core.Config{Profiles: []dram.Profile{prof}, EPTProtection: ept.GuardRows}
	deployed := "no mitigation"
	if *mitFlag != "" {
		k, err := mitigation.ParseKind(*mitFlag)
		if err != nil {
			return err
		}
		// The deployed defense decides the hypervisor mode.
		machine.Mitigation = mitigation.Spec{Kind: k, Seed: inv.seed}
		mode = core.ModeBaseline
		if machine.Mitigation.IsolatesSubarrayGroups() {
			mode = core.ModeSiloz
		}
		deployed = "mitigation " + machine.Mitigation.Name()
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
		fmt.Fprintf(inv.stdout, "hypervisor: %s, %s, DIMM profile %s, attacker VM %d GiB, victim VM %d GiB, %d rep(s)\n",
			mode, deployed, prof.Name, *vmGiB, *vmGiB, reps)
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
			Mode: mode.String(), DIMM: prof.Name, Rep: i, Seed: seed,
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
		if *mitFlag != "" {
			reports[i].Mitigation = res.Kind
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
		if rep.Mitigation != "" {
			fmt.Fprintf(inv.stdout, "rep %d overhead:      %d defense refreshes, %d MiB capacity blocked\n",
				rep.Rep, rep.Refreshes, rep.BlockedMiB)
		}
	}
	switch {
	case !contained:
		if !inv.json {
			fmt.Fprintln(inv.stdout, "RESULT: inter-VM Rowhammer SUCCEEDED — isolation violated")
		}
		return errNegative
	case inv.json:
	case *mitFlag != "":
		fmt.Fprintln(inv.stdout, "RESULT: all flips contained to the attacker's own memory and sacrificial guard capacity")
	default:
		fmt.Fprintln(inv.stdout, "RESULT: all flips contained to the attacker's own subarray groups")
	}
	return nil
}
