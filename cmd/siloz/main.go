// Command siloz is the reproduction's single front door. Every tool is a
// subcommand over one shared driver — flag parsing, context/-timeout/signal
// handling, the worker pool, experiment rendering and exit codes live here
// once — and subcommands keep only their own flags and printing:
//
//	siloz bench       run the experiment registry: the paper's tables and figures (§7) and the discussion studies
//	siloz blacksmith  Blacksmith fuzzing from a tenant VM, attacker view vs ground truth
//	siloz infer       mFIT subarray-size / DRAMDig row-adjacency inference
//	siloz topology    dump the booted DRAM isolation topology
//	siloz audit       populate and stress a host, then run the invariant audit
//	siloz perf        turn `go test -bench` output into a JSON baseline, or gate against one
//
// Run `siloz <command> -h` for a command's flags. Results go to stdout —
// bit-for-bit identical at any -parallel width — and progress, timing and
// errors go to stderr. Exit status is 0 on success, 1 when a run fails or
// its outcome is negative (a failing check, an escaped flip), 2 on usage
// errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// commands is the dispatch table, in the order usage lists it.
var commands = []struct {
	name, summary string
	run           func(inv *invocation, args []string) error
}{
	{"bench", "regenerate the paper's tables, figures and studies from the experiment registry", benchCmd},
	{"blacksmith", "Blacksmith fuzzing campaign from a tenant VM", blacksmithCmd},
	{"infer", "subarray-size (mFIT) or row-adjacency inference against a DIMM", inferCmd},
	{"topology", "dump the booted DRAM isolation topology", topologyCmd},
	{"audit", "populate and stress a host, then audit its invariants", auditCmd},
	{"perf", "capture `go test -bench` output as JSON, or gate against a baseline", perfCmd},
}

var (
	// errUsage marks a flag-parse failure the flag package already
	// reported; the process exits 2.
	errUsage = errors.New("usage")
	// errNegative marks a run whose negative outcome is already on stdout
	// (an escaped flip, a wrong inference); the process exits 1 silently.
	errNegative = errors.New("negative outcome")
)

// run dispatches one invocation and returns the process exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	usage := func() {
		fmt.Fprintln(stderr, "usage: siloz <command> [flags]\n\ncommands:")
		for _, c := range commands {
			fmt.Fprintf(stderr, "  %-11s %s\n", c.name, c.summary)
		}
		fmt.Fprintln(stderr, "\nRun 'siloz <command> -h' for a command's flags.")
	}
	if len(args) == 0 {
		usage()
		return 2
	}
	if args[0] == "help" || args[0] == "-h" || args[0] == "-help" || args[0] == "--help" {
		usage()
		return 0
	}
	for _, c := range commands {
		if c.name != args[0] {
			continue
		}
		err := c.run(newInvocation(c.name, stdin, stdout, stderr), args[1:])
		switch {
		case err == nil, errors.Is(err, flag.ErrHelp):
			return 0
		case errors.Is(err, errUsage):
			return 2
		case errors.Is(err, errNegative):
			return 1
		}
		fmt.Fprintf(stderr, "siloz %s: %v\n", c.name, err)
		return 1
	}
	fmt.Fprintf(stderr, "siloz: unknown command %q\n", args[0])
	usage()
	return 2
}

// invocation is one subcommand run: its flag set and streams, plus the
// flags more than one subcommand takes — each defined once, here, and
// registered by the subcommands that accept it.
type invocation struct {
	fs             *flag.FlagSet
	stdin          io.Reader
	stdout, stderr io.Writer

	seed     int64
	quick    bool
	ops      int
	reps     int
	parallel int
	json     bool
	timeout  time.Duration
}

// newInvocation builds the driver state for one run of subcommand name.
func newInvocation(name string, stdin io.Reader, stdout, stderr io.Writer) *invocation {
	inv := &invocation{
		fs:    flag.NewFlagSet("siloz "+name, flag.ContinueOnError),
		stdin: stdin, stdout: stdout, stderr: stderr,
	}
	inv.fs.SetOutput(stderr)
	return inv
}

// simFlags registers the knobs every simulating subcommand spells the same
// way: -seed, -quick, -ops, -reps, -parallel.
func (inv *invocation) simFlags() {
	inv.fs.Int64Var(&inv.seed, "seed", 1, "base RNG seed; per-rep streams derive from it")
	inv.fs.BoolVar(&inv.quick, "quick", false, "scaled-down parameters for a fast pass")
	inv.fs.IntVar(&inv.ops, "ops", 0, "operations per run (0 = command default)")
	inv.fs.IntVar(&inv.reps, "reps", 0, "repetitions per configuration (0 = command default)")
	inv.fs.IntVar(&inv.parallel, "parallel", 0, "worker pool width (0 = GOMAXPROCS)")
}

// jsonFlag registers -json.
func (inv *invocation) jsonFlag() {
	inv.fs.BoolVar(&inv.json, "json", false, "emit JSON documents instead of text")
}

// parse parses the subcommand's arguments; the flag package has already
// reported any failure (with usage) on stderr.
func (inv *invocation) parse(args []string) error {
	if err := inv.fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	return nil
}

// context returns the run's context: canceled by SIGINT/SIGTERM, and by
// -timeout where the subcommand takes it.
func (inv *invocation) context() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if inv.timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, inv.timeout)
	return ctx, func() { cancel(); stop() }
}

// pool builds the -parallel wide worker pool.
func (inv *invocation) pool() *experiments.Pool { return experiments.NewPool(inv.parallel) }

// repCount resolves -reps for the subcommands that fan their own
// repetitions, which default to one.
func (inv *invocation) repCount() int {
	if inv.reps > 0 {
		return inv.reps
	}
	return 1
}

// atLeast rejects an integer flag below min as a usage error that names the
// flag, before any work starts.
func (inv *invocation) atLeast(name string, v, min int) error {
	if v >= min {
		return nil
	}
	fmt.Fprintf(inv.stderr, "invalid value %d for flag -%s: must be at least %d\n", v, name, min)
	inv.fs.Usage()
	return errUsage
}

// runJobs schedules the jobs on the pool and streams each result to stdout
// in input order as text (a blank line after each) or JSON, with progress
// and timing on stderr. A failing check fails the run.
func (inv *invocation) runJobs(jobs []experiments.Job) error {
	ctx, cancel := inv.context()
	defer cancel()
	pool := inv.pool()
	failed := 0
	var renderErr error
	onDone := func(r *experiments.Result, elapsed time.Duration) {
		fmt.Fprintf(inv.stderr, "==> %s (%.1fs)\n", r.Name, elapsed.Seconds())
		if !r.Passed() {
			failed++
		}
		if renderErr != nil {
			return
		}
		if renderErr = inv.render(r); renderErr != nil {
			cancel() // nothing further can be reported; stop the work
		}
	}
	start := time.Now()
	_, err := experiments.RunAll(ctx, jobs, pool, onDone)
	if renderErr != nil {
		return renderErr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(inv.stderr, "done: %d experiments in %.1fs (parallel=%d)\n",
		len(jobs), time.Since(start).Seconds(), pool.Width())
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) have failing checks", failed)
	}
	return nil
}

// render writes one result to stdout in the selected format.
func (inv *invocation) render(r *experiments.Result) error {
	if !inv.json {
		_, err := io.WriteString(inv.stdout, experiments.RenderText(r)+"\n")
		return err
	}
	js, err := experiments.RenderJSON(r)
	if err != nil {
		return err
	}
	_, err = inv.stdout.Write(js)
	return err
}
