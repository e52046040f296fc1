package main

import (
	"flag"
	"fmt"

	"repro/internal/experiments"
)

// benchCmd runs `siloz bench`: the experiment registry — the paper's tables
// and figures and the discussion studies — on the shared job runner.
func benchCmd(inv *invocation, args []string) error {
	jobs, err := benchJobs(inv, args)
	if err != nil || jobs == nil {
		return err
	}
	return inv.runJobs(jobs)
}

// benchJobs plans `siloz bench`: parse its flags and bind the selected
// experiments to the parameters they resolve to. It returns no jobs when
// -list already answered the invocation.
func benchJobs(inv *invocation, args []string) ([]experiments.Job, error) {
	exp := inv.fs.String("exp", "all", "experiment: all, one name, or a comma-separated list")
	list := inv.fs.Bool("list", false, "list experiment names and exit")
	patterns := inv.fs.Int("patterns", 0, "override fuzzing patterns per DIMM")
	inv.simFlags()
	inv.jsonFlag()
	inv.fs.DurationVar(&inv.timeout, "timeout", 0, "abort the whole run after this duration (0 = none)")
	if err := inv.parse(args); err != nil {
		return nil, err
	}
	if *list {
		for _, n := range experiments.Names() {
			fmt.Fprintln(inv.stdout, n)
		}
		return nil, nil
	}
	// The one path from command line to experiment parameters.
	f := experiments.Flags{Quick: inv.quick, Seed: inv.seed, Ops: inv.ops, Reps: inv.reps, Patterns: *patterns}
	inv.fs.Visit(func(fl *flag.Flag) { f.SeedSet = f.SeedSet || fl.Name == "seed" })
	jobs, err := experiments.Select(*exp, f)
	if err != nil {
		return nil, fmt.Errorf("%w (run -list for names)", err)
	}
	return jobs, nil
}
