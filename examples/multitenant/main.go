// Multitenant: the paper's motivating scenario end to end. Several tenants
// run cloud workloads (redis+YCSB, memcached) while a malicious tenant
// mounts a Rowhammer campaign. The same scenario is run twice — on the
// unmodified Linux/KVM baseline and on Siloz — showing that Siloz removes
// the inter-VM bit flips without measurably changing tenant performance.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ept"
	"repro/internal/geometry"
	"repro/internal/memctrl"
	"repro/internal/workload"
)

type outcome struct {
	tenantPerf map[string]float64 // ops/sec per tenant
	flipsIn    int
	flipsOut   int
}

func runScenario(mode core.Mode) (outcome, error) {
	out := outcome{tenantPerf: map[string]float64{}}
	hv, err := core.Boot(core.Config{
		Profiles:      []dram.Profile{dram.ProfileD()},
		EPTProtection: ept.GuardRows,
	}, mode)
	if err != nil {
		return out, err
	}
	proc := core.Process{CGroup: "kvm", KVMPrivileged: true}

	// Three tenants: two honest (redis, memcached), one malicious.
	tenants := map[string]workload.Workload{
		"redis-tenant":     workload.YCSB{Letter: 'b'},
		"memcached-tenant": workload.Memcached{},
	}
	vms := map[string]*core.VM{}
	for _, name := range []string{"mallory", "redis-tenant", "memcached-tenant"} {
		vm, err := hv.CreateVM(proc, core.VMSpec{
			Name: name, Socket: 0, MemoryBytes: 3 * geometry.GiB, VCPUs: 8,
		})
		if err != nil {
			return out, err
		}
		vms[name] = vm
	}

	// Honest tenants run their services.
	for name, w := range tenants {
		ctrl, err := memctrl.New(memctrl.Config{
			Mapper: hv.Memory().Mapper(), Timing: memctrl.DDR4_2933(),
			MLPWindow: 10, JitterSeed: 42,
		})
		if err != nil {
			return out, err
		}
		cache, err := memctrl.NewCache(32*geometry.MiB, 16)
		if err != nil {
			return out, err
		}
		res, err := workload.RunOnVM(vms[name], ctrl, cache, w, 40_000, 42)
		if err != nil {
			return out, err
		}
		out.tenantPerf[name] = res.OpsPerSec()
	}

	// Mallory attacks.
	fz := attack.NewFuzzer(attack.FuzzerConfig{
		Patterns: 30, WindowsPerPattern: 2,
		MaxActsPerWindow: 1_200_000, FillPattern: 0xAA, Seed: 99,
	})
	if _, err := fz.Run(&attack.VMTarget{VM: vms["mallory"]}); err != nil {
		return out, err
	}
	flips, err := attack.AttributeFlips(hv, vms["mallory"])
	if err != nil {
		return out, err
	}
	out.flipsIn, out.flipsOut = flips.AttackerFlips, flips.Outside()
	return out, nil
}

func main() {
	log.SetFlags(0)
	results := map[core.Mode]outcome{}
	for _, mode := range []core.Mode{core.ModeBaseline, core.ModeSiloz} {
		res, err := runScenario(mode)
		if err != nil {
			log.Fatalf("%v: %v", mode, err)
		}
		results[mode] = res
		fmt.Printf("%-8s  flips: %4d contained, %3d escaped  |  redis %.0f ops/s, memcached %.0f ops/s\n",
			mode, res.flipsIn, res.flipsOut,
			res.tenantPerf["redis-tenant"], res.tenantPerf["memcached-tenant"])
	}

	b, s := results[core.ModeBaseline], results[core.ModeSiloz]
	fmt.Println()
	if b.flipsOut > 0 && s.flipsOut == 0 {
		fmt.Println("=> baseline leaked inter-VM bit flips; Siloz contained every flip")
	}
	names := make([]string, 0, len(b.tenantPerf))
	for name := range b.tenantPerf {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		delta := 100 * (s.tenantPerf[name]/b.tenantPerf[name] - 1)
		fmt.Printf("=> %s performance under Siloz: %+.2f%% vs baseline\n", name, delta)
	}
}
