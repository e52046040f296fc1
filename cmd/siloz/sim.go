package main

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/experiments"
	"repro/internal/geometry"
	"repro/internal/memctrl"
	"repro/internal/workload"
)

// pickWorkload looks a workload up by name across every suite.
func pickWorkload(name string) (workload.Workload, error) {
	for _, w := range workload.All() {
		if w.Name() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// simCmd runs an end-to-end cloud scenario: boot a hypervisor, place tenant
// VMs, run a workload in one while another mounts a Rowhammer attack, and
// report both performance and containment.
//
// The victim workload repeats -reps times (each repetition on a fresh
// memory controller, seeded from -seed and the repetition index) and the
// repetitions fan out onto a -parallel wide worker pool; per-rep results
// print in index order, identical at any pool width.
func simCmd(inv *invocation, args []string) error {
	modeFlag := inv.fs.String("mode", "siloz", "hypervisor: siloz or baseline")
	tenants := inv.fs.Int("tenants", 3, "number of tenant VMs (tenant 0 is the attacker)")
	vmGiB := inv.fs.Int("vm-gib", 3, "memory per tenant in GiB")
	wname := inv.fs.String("workload", "redis-a", "workload run by the victim tenant")
	patterns := inv.fs.Int("patterns", 25, "attacker fuzzing patterns")
	inv.simFlags()
	if err := inv.parse(args); err != nil {
		return err
	}

	mode := core.ModeSiloz
	if *modeFlag == "baseline" {
		mode = core.ModeBaseline
	}
	w, err := pickWorkload(*wname)
	if err != nil {
		return err
	}
	ops := 50_000
	if inv.quick {
		ops = 15_000
		*patterns = 10
	}
	if inv.ops > 0 {
		ops = inv.ops
	}
	reps := inv.repCount()

	prof := dram.ProfileD()
	h, err := core.Boot(core.Config{
		Profiles:      []dram.Profile{prof},
		EPTProtection: ept.GuardRows,
	}, mode)
	if err != nil {
		return err
	}
	proc := core.KVMProcess()
	vms := make([]*core.VM, *tenants)
	for i := range vms {
		vms[i], err = h.CreateVM(proc, core.VMSpec{
			Name:          fmt.Sprintf("tenant%d", i),
			Socket:        0,
			MemoryBytes:   uint64(*vmGiB) * geometry.GiB,
			VCPUs:         4,
			MediatedBytes: 64 * geometry.KiB,
		})
		if err != nil {
			return fmt.Errorf("creating tenant %d: %w", i, err)
		}
	}
	fmt.Fprintf(inv.stdout, "booted %s with %d tenants x %d GiB on %s\n",
		h.Mode(), *tenants, *vmGiB, h.Layout().Geometry())

	// Victim runs the workload; repetitions fan out onto the pool and are
	// reported by index, so output is scheduling-independent.
	attacker, victim := vms[0], vms[len(vms)-1]
	type repResult struct {
		res     memctrl.Result
		hitRate float64
	}
	results := make([]repResult, reps)
	ctx, cancel := inv.context()
	defer cancel()
	err = inv.pool().Map(ctx, reps, func(rep int) error {
		seed := experiments.RepSeed(inv.seed, rep)
		ctrl, err := memctrl.New(memctrl.Config{
			Mapper: h.Memory().Mapper(), Timing: memctrl.DDR4_2933(),
			MLPWindow: 10, JitterSeed: seed,
		})
		if err != nil {
			return err
		}
		cache, err := memctrl.NewCache(32*geometry.MiB, 16)
		if err != nil {
			return err
		}
		res, err := workload.RunOnVM(victim, ctrl, cache, w, ops, seed)
		if err != nil {
			return err
		}
		results[rep] = repResult{res: res, hitRate: cache.HitRate()}
		return nil
	})
	if err != nil {
		return err
	}
	for rep, r := range results {
		fmt.Fprintf(inv.stdout, "victim %s ran %s [rep %d]: %s (LLC hit %.1f%%)\n",
			victim.Name(), w.Name(), rep, r.res, 100*r.hitRate)
	}

	// Attacker fuzzes.
	fz := attack.NewFuzzer(attack.FuzzerConfig{
		Patterns:          *patterns,
		WindowsPerPattern: 2,
		MaxActsPerWindow:  prof.MaxActsPerWindow * 9 / 10,
		FillPattern:       0xAA,
		Seed:              inv.seed,
	})
	rep, err := fz.Run(&attack.VMTarget{VM: attacker})
	if err != nil {
		return err
	}
	fmt.Fprintf(inv.stdout, "attacker %s: %d/%d patterns effective, %d corruptions in its own memory\n",
		attacker.Name(), rep.EffectivePatterns, rep.PatternsTried, len(rep.Corruptions))

	flips, err := attack.AttributeFlips(h, attacker, vms[1:]...)
	if err != nil {
		return err
	}
	if escaped := flips.Outside(); escaped > 0 {
		fmt.Fprintf(inv.stdout, "RESULT: %d bit flips landed OUTSIDE the attacker's domain — co-located tenants corrupted\n", escaped)
		return errNegative
	}
	fmt.Fprintln(inv.stdout, "RESULT: every bit flip stayed inside the attacker's own subarray groups")
	return nil
}
