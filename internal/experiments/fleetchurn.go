package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/fleet"
	"repro/internal/geometry"
)

// round2 rounds to two decimals so rendered tables stay readable; the
// rounding is deterministic, so JSON output remains byte-stable.
func round2(v float64) float64 { return math.Round(v*100) / 100 }

// fleetParams parameterizes the "fleet-churn" experiment: a multi-host
// fleet under a traced churn workload — thousands of VM arrivals, resizes,
// and departures — once per placement policy, reporting capacity,
// migration-downtime, and stranded-capacity metrics at fleet scale.
type fleetParams struct {
	// Hosts is the simulated machine count, each a fleet lab box.
	Hosts int
	// Policies are the placement policies compared.
	Policies []string
	// TraceConfig shapes the churn trace; its Seed also drives the
	// rebalancing scheduler and every injected guest write.
	fleet.TraceConfig
	// TouchPages is how many 2 MiB pages each VM stamps at admission
	// (the data migrations must carry).
	TouchPages int
	// CopyGiBps converts downtime bytes to modeled milliseconds.
	CopyGiBps float64
}

// fleetLabGeometry is the per-host box: 8 subarray groups of 64 MiB per
// socket so each socket carves into 1 host + 1 EPT + 7 guest nodes (14
// guest nodes, 896 MiB per host).
func fleetLabGeometry() geometry.Geometry {
	g := migrationLabGeometry()
	g.RowsPerBank = 4096
	return g
}

// fleetConfig resolves the churn study. The default runs ≥1000 arrivals
// across 8 hosts (7 GiB of guest capacity fleet-wide) under every built-in
// policy, with the trace sized to oversubscribe it, so every policy takes
// real rejections and the scheduler has hot hosts to drain; -quick trims
// hosts, trace and policies.
func fleetConfig(f Flags) fleetParams {
	cfg := fleetParams{
		Hosts: 8,
		TraceConfig: fleet.TraceConfig{
			Seed:             f.seed(29),
			Rounds:           42,
			ArrivalsPerRound: 24,
			VMSizes: []uint64{
				64 * geometry.MiB, 96 * geometry.MiB,
				128 * geometry.MiB, 192 * geometry.MiB,
			},
			MinLifetime: 1,
			MaxLifetime: 3,
			ResizeProb:  0.25,
		},
		TouchPages: 2,
		CopyGiBps:  12,
	}
	for _, p := range fleet.Policies() {
		cfg.Policies = append(cfg.Policies, p.Name())
	}
	if f.Quick {
		cfg.Hosts = 3
		cfg.Rounds = 5
		cfg.ArrivalsPerRound = 8
		cfg.Policies = []string{"first-fit", "siloz-aware"}
	}
	return cfg
}

// fleetPolicyResult is one policy's complete churn run, index-addressed
// for the pool.
type fleetPolicyResult struct {
	policy        string
	admitted      int
	rejected      int
	untypedReject int // rejections NOT matching fleet.ErrNoPlacement
	peakUtil      float64
	peakStranded  float64 // fraction of guest capacity
	finalStranded float64
	crossMoves    int
	defragMoves   int
	migratedMiB   float64
	downtimeMs    float64
	auditRounds   int
	auditErr      error
	leftoverNodes int // owned guest nodes after the final drain
}

func fleetChurnExp(ctx context.Context, pool *Pool, fc fleetParams) (*Result, error) {
	trace := fleet.GenerateTrace(fc.TraceConfig)

	// Every policy replays the same trace under fc.Seed: no per-cell seed.
	results, err := mapCells(ctx, pool, fc.Seed, fc.Policies, func(policy string, _ int64) (*fleetPolicyResult, error) {
		r, err := runFleetPolicy(ctx, fc, policy, trace)
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", policy, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Name:  "fleet-churn",
		Title: "Fleet churn: admission, rebalancing and stranded capacity across placement policies",
		Columns: []string{
			"policy", "admitted", "rejected", "peak util", "peak stranded",
			"final stranded", "cross moves", "defrag moves", "migrated", "downtime", "audits",
		},
		Units: []string{
			"", "VMs", "VMs", "%", "%", "%", "", "", "MiB", "ms", "rounds",
		},
		Metadata: map[string]string{
			"hosts":    fmt.Sprintf("%d", fc.Hosts),
			"arrivals": fmt.Sprintf("%d", len(trace)),
			"geometry": fleetLabGeometry().String(),
			"seed":     fmt.Sprintf("%d", fc.Seed),
		},
	}

	admittedTotal := 0
	for _, r := range results {
		res.row(r.policy, r.policy, r.admitted, r.rejected,
			round2(r.peakUtil*100), round2(r.peakStranded*100),
			round2(r.finalStranded*100),
			r.crossMoves, r.defragMoves, round2(r.migratedMiB), round2(r.downtimeMs),
			r.auditRounds)
		res.scalar("fleet_admitted_"+r.policy, float64(r.admitted))
		res.scalar("fleet_rejected_"+r.policy, float64(r.rejected))
		res.scalar("fleet_peak_util_pct_"+r.policy, round2(r.peakUtil*100))
		res.scalar("fleet_peak_stranded_pct_"+r.policy, round2(r.peakStranded*100))
		res.scalar("fleet_cross_moves_"+r.policy, float64(r.crossMoves))
		res.scalar("fleet_downtime_ms_"+r.policy, round2(r.downtimeMs))
		if r.auditErr != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("%s audit failure: %v", r.policy, r.auditErr))
		}
		admittedTotal += r.admitted
	}
	res.check("audits_passed", allCells(results, func(c *fleetPolicyResult) bool { return c.auditErr == nil }),
		fmt.Sprintf("fleet-wide isolation audit after every churn round (%d rounds x %d policies)",
			results[0].auditRounds, len(results)))
	res.check("trace_complete", allCells(results, func(c *fleetPolicyResult) bool { return c.admitted+c.rejected == len(trace) }),
		fmt.Sprintf("every traced arrival admitted or rejected (%d arrivals per policy)", len(trace)))
	res.check("typed_rejections", allCells(results, func(c *fleetPolicyResult) bool { return c.untypedReject == 0 }),
		"every admission rejection matches fleet.ErrNoPlacement via errors.Is")
	res.check("capacity_conserved", allCells(results, func(c *fleetPolicyResult) bool { return c.leftoverNodes == 0 }),
		"all guest nodes return to the free pool after the final drain")
	res.check("churn_nonvacuous", admittedTotal > 0 && len(trace) >= fc.Rounds*fc.ArrivalsPerRound,
		fmt.Sprintf("%d VMs admitted across %d policies", admittedTotal, len(results)))

	if len(results) > 1 {
		base, last := results[0], results[len(results)-1]
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s admitted %d vs %s %d at peak stranded %.1f%% vs %.1f%% — node-granular "+
				"exclusivity is the isolation rent; placement policy sets the price",
			last.policy, last.admitted, base.policy, base.admitted,
			last.peakStranded*100, base.peakStranded*100))
	}
	return res, nil
}

// runFleetPolicy drives the full trace through one fresh cluster. It is
// single-threaded, an op has finished when its submission returns, and
// hosts run one op at a time — determinism by construction, parallelism
// only across policies (via the caller's pool).
func runFleetPolicy(ctx context.Context, fc fleetParams, policyName string, trace []fleet.Arrival) (*fleetPolicyResult, error) {
	policy, err := fleet.PolicyByName(policyName)
	if err != nil {
		return nil, err
	}
	cluster, err := fleet.New(fleet.Config{
		Hosts: fc.Hosts,
		Core: core.Config{
			Geometry: fleetLabGeometry(),
			Profiles: []dram.Profile{migrationLabProfile()},
		},
		Policy: policy,
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	sched := fleet.NewScheduler(cluster, fleet.SchedulerConfig{Seed: fc.Seed})

	res := &fleetPolicyResult{policy: policyName}
	arrivalsAt := map[int][]fleet.Arrival{}
	for _, a := range trace {
		arrivalsAt[a.Round] = append(arrivalsAt[a.Round], a)
	}
	departAt := map[int][]string{}
	resizeAt := map[int][]fleet.Arrival{}
	stampRng := rand.New(rand.NewSource(fc.Seed + 1))
	stamp := make([]byte, 128)

	lastRound := fc.Rounds + fc.MaxLifetime
	for round := 0; round <= lastRound; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Phase 1: departures scheduled for this round.
		if err := departAll(ctx, cluster, departAt[round]); err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}

		// Phase 2: arrivals, synchronous in trace order.
		for _, a := range arrivalsAt[round] {
			hostName, err := cluster.Admit(ctx, core.KVMProcess(), core.VMSpec{
				Name:           a.Name,
				MemoryBytes:    a.Bytes,
				MinMemoryBytes: a.MinBytes,
				VCPUs:          1,
			})
			if err != nil {
				res.rejected++
				if !errors.Is(err, fleet.ErrNoPlacement) {
					res.untypedReject++
				}
				continue
			}
			res.admitted++
			departAt[a.DepartRound] = append(departAt[a.DepartRound], a.Name)
			if a.ResizeRound >= 0 {
				resizeAt[a.ResizeRound] = append(resizeAt[a.ResizeRound], a)
			}
			// Stamp guest pages so migrations carry real data.
			h, err := cluster.Host(hostName)
			if err != nil {
				return nil, err
			}
			if vm, ok := h.Hypervisor().VM(a.Name); ok {
				pages := int(a.Bytes / geometry.PageSize2M)
				for p := 0; p < fc.TouchPages && p < pages; p++ {
					stampRng.Read(stamp)
					if err := vm.WriteGuest(uint64(p)*geometry.PageSize2M, stamp); err != nil {
						return nil, fmt.Errorf("stamp %s: %w", a.Name, err)
					}
				}
			}
		}

		// Phase 3: scheduled resizes. A denied resize (no adoptable
		// capacity) is a legitimate outcome under load, not an experiment
		// failure.
		for _, a := range resizeAt[round] {
			// Neither the submission's nor the op's error is consulted:
			// denial changes what later rounds see, which is the result.
			_, _ = cluster.SubmitResize(a.Name, a.ResizeBytes)
		}

		// Phase 4: the migration scheduler's rebalancing round.
		rep, err := sched.Round(ctx)
		if err != nil {
			return nil, fmt.Errorf("round %d rebalance: %w", round, err)
		}
		res.crossMoves += rep.CrossMoves
		res.defragMoves += rep.DefragMoves

		// Phase 5: fleet-wide isolation audit and metrics sample.
		if err := cluster.AuditIsolation(); err != nil {
			res.auditErr = fmt.Errorf("round %d: %w", round, err)
			return res, nil
		}
		res.auditRounds++
		m, err := cluster.Metrics()
		if err != nil {
			return nil, err
		}
		if u := m.Utilization(); u > res.peakUtil {
			res.peakUtil = u
		}
		if s := m.StrandedFraction(); s > res.peakStranded {
			res.peakStranded = s
		}
		res.finalStranded = m.StrandedFraction()
	}

	// Final drain: every surviving VM departs; capacity must return.
	if err := departAll(ctx, cluster, cluster.VMs()); err != nil {
		return nil, fmt.Errorf("final drain: %w", err)
	}
	if err := cluster.AuditIsolation(); err != nil {
		res.auditErr = fmt.Errorf("final drain: %w", err)
		return res, nil
	}
	m, err := cluster.Metrics()
	if err != nil {
		return nil, err
	}
	res.leftoverNodes = m.OwnedNodes

	stats := cluster.Stats()
	res.migratedMiB = float64(stats.MigratedBytes) / float64(geometry.MiB)
	res.downtimeMs = stats.DowntimeMs(fc.CopyGiBps)
	return res, nil
}

// departAll departs every named VM in order and reports the first
// departure that failed.
func departAll(ctx context.Context, cluster *fleet.Cluster, names []string) error {
	for _, name := range names {
		err := ctx.Err()
		if err == nil {
			var op *fleet.Op
			if op, err = cluster.SubmitDepart(name); err == nil {
				err = op.Wait(ctx)
			}
		}
		if err != nil {
			return fmt.Errorf("depart %s: %w", name, err)
		}
	}
	return nil
}
