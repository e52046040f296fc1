package main

import (
	"fmt"
	"strings"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/mitigation"
)

// The three registry-backed subcommands. Each is a planner — parse flags,
// bind experiments to parameters — handed to the shared job runner; fleet
// and serve are flag→parameter mappings over the one experiment they front,
// so with no overrides they run exactly what `siloz bench -exp NAME` runs.

// registryCmd turns a planner into a subcommand. blankAfter separates the
// streamed experiments with a blank line, as bench does.
func registryCmd(plan func(*invocation, []string) ([]experiments.Job, error), blankAfter bool) func(*invocation, []string) error {
	return func(inv *invocation, args []string) error {
		jobs, err := plan(inv, args)
		if err != nil || jobs == nil {
			return err
		}
		return inv.runJobs(jobs, blankAfter)
	}
}

// registryFlags registers the shared flags every registry-backed
// subcommand takes.
func (inv *invocation) registryFlags() {
	inv.simFlags()
	inv.jsonFlag()
	inv.fs.DurationVar(&inv.timeout, "timeout", 0, "abort the whole run after this duration (0 = none)")
}

// benchJobs plans `siloz bench`: regenerate the paper's tables and figures
// by dispatching the experiment registry. It returns no jobs when -list
// already answered the invocation.
func benchJobs(inv *invocation, args []string) ([]experiments.Job, error) {
	exp := inv.fs.String("exp", "all", "experiment: all, one name, or a comma-separated list")
	list := inv.fs.Bool("list", false, "list experiment names and exit")
	patterns := inv.fs.Int("patterns", 0, "override fuzzing patterns per DIMM")
	inv.fs.StringVar(&inv.csvDir, "csv", "", "directory to also write per-experiment CSV files into")
	inv.registryFlags()
	if err := inv.parse(args); err != nil {
		return nil, err
	}
	if *list {
		for _, n := range experiments.Names() {
			fmt.Fprintln(inv.stdout, n)
		}
		return nil, nil
	}
	jobs, err := inv.selectJobs(*exp, *patterns)
	if err != nil {
		return nil, fmt.Errorf("%w (run -list for names)", err)
	}
	return jobs, nil
}

// fleetJobs plans `siloz fleet`, the fleet-scale control-plane study — a
// multi-host cluster under a traced churn workload with admission
// bin-packing, a rebalancing migration scheduler and a fleet-wide isolation
// audit after every round — by mapping its flags onto the fleet-churn
// experiment's parameters.
func fleetJobs(inv *invocation, args []string) ([]experiments.Job, error) {
	hosts := inv.fs.Int("hosts", 0, "override simulated host count")
	rounds := inv.fs.Int("rounds", 0, "override churn rounds")
	arrivals := inv.fs.Int("arrivals", 0, "override VM arrivals per round")
	policy := inv.fs.String("policy", "", "placement policies, comma-separated (default: all)")
	inv.registryFlags()
	if err := inv.parse(args); err != nil {
		return nil, err
	}
	jobs, err := inv.selectJobs("fleet-churn", 0)
	if err != nil {
		return nil, err
	}
	fc := jobs[0].Params.(experiments.FleetConfig)
	if *hosts > 0 {
		fc.Hosts = *hosts
	}
	if *rounds > 0 {
		fc.Rounds = *rounds
	}
	if *arrivals > 0 {
		fc.ArrivalsPerRound = *arrivals
	}
	if *policy != "" {
		fc.Policies = splitList(*policy)
		for _, name := range fc.Policies {
			if _, err := fleet.PolicyByName(name); err != nil {
				return nil, err
			}
		}
	}
	jobs[0].Params = fc
	return jobs, nil
}

// serveJobs plans `siloz serve`, the request-level serving study —
// multi-tenant open-loop KV serving against every deployable Rowhammer
// defense, quiet and under control-plane churn — by mapping its flags onto
// the serving-slo experiment's parameters.
func serveJobs(inv *invocation, args []string) ([]experiments.Job, error) {
	qps := inv.fs.Float64("qps", 0, "override per-tenant open-loop arrival rate")
	sloUs := inv.fs.Float64("slo-us", 0, "override the per-request latency SLO (microseconds)")
	durationMs := inv.fs.Float64("duration-ms", 0, "override the virtual arrival horizon (milliseconds)")
	defense := inv.fs.String("defense", "", "defense rows, comma-separated (default: all kinds)")
	scenario := inv.fs.String("scenario", "", "scenarios, comma-separated from quiet,churn (default: both)")
	inv.registryFlags()
	if err := inv.parse(args); err != nil {
		return nil, err
	}
	jobs, err := inv.selectJobs("serving-slo", 0)
	if err != nil {
		return nil, err
	}
	sc := jobs[0].Params.(experiments.ServingSLOConfig)
	if *qps > 0 {
		sc.QPS = *qps
	}
	if *sloUs > 0 {
		sc.SLOUs = *sloUs
	}
	if *durationMs > 0 {
		sc.DurationMs = *durationMs
	}
	if *defense != "" {
		sc.Kinds = nil
		for _, name := range splitList(*defense) {
			k, err := mitigation.ParseKind(name)
			if err != nil {
				return nil, err
			}
			sc.Kinds = append(sc.Kinds, k)
		}
	}
	if *scenario != "" {
		sc.Scenarios = splitList(*scenario)
		for _, name := range sc.Scenarios {
			if name != "quiet" && name != "churn" {
				return nil, fmt.Errorf("unknown scenario %q (want quiet or churn)", name)
			}
		}
	}
	jobs[0].Params = sc
	return jobs, nil
}

// splitList splits a comma-separated flag value, trimming each element.
func splitList(s string) []string {
	out := strings.Split(s, ",")
	for i := range out {
		out[i] = strings.TrimSpace(out[i])
	}
	return out
}
