package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/mitigation"
	"repro/internal/workload"
)

// mitigationMatrixParams parameterizes the "mitigation-matrix" experiment:
// every deployable Rowhammer defense — PARA, Silver Bullet, CATT guard
// bands, Siloz — plus the undefended control faces the identical seeded
// attack campaign (edge hammering, Blacksmith fuzzing, lifecycle churn)
// and the identical workload suite. The result is one row per defense:
// protection (flips contained) against overhead (refresh energy, blocked
// capacity, workload slowdown), with Siloz as one row among equals.
type mitigationMatrixParams struct {
	// Reps repeats each kind's attack trial with salt-spaced seeds.
	Reps int
	// FuzzPatterns and ChurnRounds shape each trial's Blacksmith and
	// churn phases (attack.MitigationTrialConfig).
	FuzzPatterns int
	ChurnRounds  int
	// Ops and WorkloadReps shape the slowdown half: each workload runs
	// WorkloadReps times at Ops operations per defended controller.
	Ops          int
	WorkloadReps int
	// Seed drives both halves.
	Seed int64
}

// mitigationMatrixConfig resolves the matrix: two attack trials per defense
// row and the full three-phase campaign; -quick trims to one trial and a
// shorter campaign.
func mitigationMatrixConfig(f Flags) mitigationMatrixParams {
	cfg := mitigationMatrixParams{
		Reps:         2,
		FuzzPatterns: 6,
		ChurnRounds:  2,
		Ops:          30_000,
		WorkloadReps: 3,
		Seed:         f.seed(53),
	}
	if f.Quick {
		cfg.Reps = 1
		cfg.FuzzPatterns = 3
		cfg.ChurnRounds = 1
		cfg.Ops = 8_000
		cfg.WorkloadReps = 2
	}
	cfg.Reps, cfg.Ops = override(f.Reps, cfg.Reps), override(f.Ops, cfg.Ops)
	return cfg
}

// matrixWorkloads is the slowdown suite: a random-access key-value server
// and an OLTP mix — row-miss-heavy streams, so a defense that occupies
// banks with injected refreshes pays visibly.
func matrixWorkloads() []workload.Workload {
	return []workload.Workload{workload.Memcached{}, workload.Sysbench{}}
}

func mitigationMatrixExp(ctx context.Context, pool *Pool, mm mitigationMatrixParams) (*Result, error) {
	// One row per mitigation kind (none, para, silver-bullet, catt, siloz).
	// Kinds() lists them in value order, so a Kind indexes its own row.
	kinds := mitigation.Kinds()
	// Phase 1: attack trials — kind x rep cells fan out on the pool; each
	// cell's seed derives from its index alone, so parallel and serial
	// schedules produce identical matrices.
	trials, err := mapReps(ctx, pool, mm.Seed, kinds, mm.Reps, func(k mitigation.Kind, seed int64) (*attack.MitigationTrialResult, error) {
		lab := lifecycleLabConfig()
		lab.Mitigation = mitigation.Spec{Kind: k, Seed: seed}
		r, err := attack.RunMitigationTrial(attack.MitigationTrialConfig{
			Core:         lab,
			Seed:         seed,
			FuzzPatterns: mm.FuzzPatterns,
			ChurnRounds:  mm.ChurnRounds,
		})
		if err != nil {
			return nil, fmt.Errorf("trial %v seed %d: %w", k, seed, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	sums := make([]attack.MitigationTrialResult, len(kinds))
	for ki := range kinds {
		for _, r := range trials[ki] {
			sums[ki].Add(r)
		}
	}

	// Phase 2: workload slowdown. Every kind's suite runs on a machine
	// deploying that defense, with the controller carrying the same
	// activation-plane instance the machine would; slowdown is a ratio to
	// the undefended row. Identical jitter streams across kinds make the
	// ratio isolate the defense's own bank occupancy.
	perf := PerfConfig{
		Geometry:  migrationLabGeometry(),
		VMMemory:  64 * geometry.MiB,
		Ops:       mm.Ops,
		Reps:      mm.WorkloadReps,
		MLPWindow: 10,
		Seed:      mm.Seed,
	}
	wls := matrixWorkloads()
	banks := perf.Geometry.TotalBanks()
	suiteNs := func(spec mitigation.Spec) ([]float64, error) {
		lab := lifecycleLabConfig()
		lab.Mitigation = spec
		h, err := core.BootMitigated(lab)
		if err != nil {
			return nil, err
		}
		defer h.Shutdown()
		vm, err := h.CreateVM(core.KVMProcess(), core.VMSpec{
			Name: "bench", Socket: 0, MemoryBytes: perf.VMMemory,
			VCPUs: perf.Geometry.CoresPerSocket,
		})
		if err != nil {
			return nil, err
		}
		defense := func(rep int) mitigation.Mitigation {
			return rowDefense(spec, banks, mitigation.ScopeSeed(RepSeed(spec.Seed, rep), banks))
		}
		out := make([]float64, len(wls))
		for i, w := range wls {
			s, err := measure(ctx, pool, perf, vm, w, execTime, defense)
			if err != nil {
				return nil, err
			}
			out[i] = s.Mean()
		}
		return out, nil
	}
	var baseNs []float64
	slowdown := make([]float64, len(kinds))
	for ki, k := range kinds {
		ns, err := suiteNs(mitigation.Spec{Kind: k, Seed: mm.Seed})
		if err != nil {
			return nil, fmt.Errorf("%v suite: %w", k, err)
		}
		if k == mitigation.KindNone {
			baseNs = ns
		}
		prod := 1.0
		for i := range ns {
			prod *= ns[i] / baseNs[i]
		}
		slowdown[ki] = math.Pow(prod, 1/float64(len(ns)))
	}

	res := &Result{
		Name: "mitigation-matrix",
		Title: "Mitigation matrix: every defense vs the same attack campaign and workload " +
			"suite — protection against refresh energy, blocked capacity, and slowdown",
		Columns: []string{
			"defense", "trials", "escapes", "attacker flips", "guard flips",
			"refreshes", "refresh rate", "blocked", "slowdown", "health",
		},
		Units: []string{
			"", "", "", "", "", "", "per 1k acts", "MiB", "x", "",
		},
		Metadata: map[string]string{
			"geometry":  migrationLabGeometry().String(),
			"seed":      fmt.Sprintf("%d", mm.Seed),
			"reps":      fmt.Sprintf("%d", mm.Reps),
			"workloads": workloadNames(wls),
		},
	}

	// blockedMiB is the mean capacity one trial's machine had blocked.
	blockedMiB := func(a *attack.MitigationTrialResult) float64 {
		return float64(a.BlockedBytes) / float64(mm.Reps) / float64(geometry.MiB)
	}
	protection := Series{Name: "escapes", Unit: "flips"}
	capacity := Series{Name: "blocked-capacity", Unit: "MiB"}
	slowSeries := Series{Name: "workload-slowdown", Unit: "x"}
	var keyed = func(name string, ki int) string { return "matrix_" + name + "_" + kinds[ki].String() }
	for ki := range kinds {
		a := &sums[ki]
		health := a.Health
		if health == "" {
			health = "intact"
		}
		refRate := 0.0
		if a.Activations > 0 {
			refRate = 1000 * float64(a.Refreshes) / float64(a.Activations)
		}
		name := kinds[ki].String()
		res.row(name, name, mm.Reps, a.Escapes(), a.AttackerFlips, a.GuardFlips,
			a.Refreshes, round3(refRate), round3(blockedMiB(a)), round3(slowdown[ki]), health)
		res.scalar(keyed("escapes", ki), float64(a.Escapes()))
		res.scalar(keyed("refreshes", ki), float64(a.Refreshes))
		res.scalar(keyed("blocked_mib", ki), round3(blockedMiB(a)))
		res.scalar(keyed("slowdown_x", ki), round3(slowdown[ki]))
		protection.Points = append(protection.Points, Point{Label: name, Value: float64(a.Escapes())})
		capacity.Points = append(capacity.Points, Point{Label: name, Value: round3(blockedMiB(a))})
		slowSeries.Points = append(slowSeries.Points, Point{Label: name, Value: round3(slowdown[ki])})
	}
	res.Series = append(res.Series, protection, capacity, slowSeries)

	// Checks: the matrix must have a vulnerable baseline, containing
	// defenses, and costs paid in each defense's own currency.
	none := &sums[mitigation.KindNone]
	res.check("baseline_vulnerable", none.Escapes() > 0 && none.Refreshes == 0,
		fmt.Sprintf("undefended machine: %d flips escaped the attacker (victim %d, stray %d), zero refreshes",
			none.Escapes(), none.VictimFlips, none.StrayFlips))
	contained := true
	var worst string
	for ki, k := range kinds {
		if a := &sums[ki]; k != mitigation.KindNone && a.Escapes() > 0 {
			contained = false
			worst = fmt.Sprintf("%s let %d flips escape", k, a.Escapes())
		}
	}
	res.check("defenses_contain", contained,
		map[bool]string{true: "every deployed defense kept victim and stray flips at zero", false: worst}[contained])
	res.check("attack_nonvacuous", allCells(sums, func(a attack.MitigationTrialResult) bool { return a.HammerBursts > 0 }),
		"every trial landed hammer bursts against extent-edge rows")
	for _, k := range []mitigation.Kind{mitigation.KindPARA, mitigation.KindSilverBullet} {
		a := &sums[k]
		res.check(k.String()+"_pays_in_energy", a.Refreshes > 0 && a.BlockedBytes == 0,
			fmt.Sprintf("%d proactive refreshes, no capacity blocked", a.Refreshes))
	}
	for _, k := range []mitigation.Kind{mitigation.KindCATT, mitigation.KindSiloz} {
		a := &sums[k]
		res.check(k.String()+"_pays_in_capacity", a.BlockedBytes > 0 && a.Refreshes == 0,
			fmt.Sprintf("%.1f MiB blocked, no injected refreshes", blockedMiB(a)))
	}
	catt, siloz := &sums[mitigation.KindCATT], &sums[mitigation.KindSiloz]
	res.check("siloz_blocks_less_than_catt", siloz.BlockedBytes < catt.BlockedBytes,
		fmt.Sprintf("siloz blocks %.1f MiB vs catt's %.1f MiB: row-space guard bands cost pages at every extent edge, subarray-group alignment only at group boundaries",
			blockedMiB(siloz), blockedMiB(catt)))

	res.Notes = append(res.Notes, fmt.Sprintf(
		"%d attack trials across %d defenses; every defense contained the campaign the undefended "+
			"machine failed, each paying in its own currency (refresh energy, blocked capacity, or slowdown)",
		len(kinds)*mm.Reps, len(kinds)))
	return res, nil
}

// workloadNames joins the suite's names for metadata.
func workloadNames(wls []workload.Workload) string {
	names := make([]string, len(wls))
	for i, w := range wls {
		names[i] = w.Name()
	}
	return strings.Join(names, ",")
}

// round3 rounds to three decimals so rendered cells and scalars stay tidy
// and byte-stable.
func round3(x float64) float64 { return math.Round(x*1000) / 1000 }
