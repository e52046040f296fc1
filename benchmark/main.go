// Command benchmark is the repository's end-to-end benchmark: five
// fixed-work, seeded workloads driven against the public functions of the
// simulator's layers. It reports host time and memory per simulated
// operation end to end, the simulated results those operations produced
// (checked for correctness and digested), and — on a traced run — a
// per-layer ladder timed from outside. README.md in this directory has the
// metric tables and how to read them.
//
//	go run ./benchmark                                  all five workloads, end to end
//	go run ./benchmark --trace 1                        all five, per-layer ladder + out/trace-*.jsonl
//	go run ./benchmark --workload serve-quiet --seed 7  one workload; last line is the driver's JSON result
//	go run ./benchmark --repeat-check                   two full sets on the held-out seed, compared to the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// heldOutSeed is never used while tuning the benchmark or a change measured
// by it; --repeat-check runs on it unless --seed is given.
const heldOutSeed = 20260930

var workloads = []*workloadDef{serveQuiet, serveChurn, streamDefended, hammerContain, fleetChurn}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricValue is one reported metric in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output of a --workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResultLine(attempted, failed int64, defs []metricDef, values map[string]float64) resultLine {
	line := resultLine{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		line.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	return line
}

type options struct {
	seed   int64
	budget time.Duration
	sz     size
	traced bool
	outDir string
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and end with the driver's JSON result line; empty runs all five")
		seed    = flag.Int64("seed", 1, "the only source of randomness: every generated input derives from it")
		seconds = flag.Int("seconds", 20, "measuring budget per workload, in host seconds")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and trace-<workload>.jsonl instead of end-to-end metrics")
		smoke   = flag.Bool("smoke", false, "tiny trials (all five workloads in a few seconds) that exercise the real code paths")
		repeat  = flag.Bool("repeat-check", false, "run two complete sets back to back and compare every end-to-end metric against its bound")
		outDir  = flag.String("out", "benchmark/out", "directory traced runs write trace-<workload>.jsonl into")
	)
	flag.Parse()
	// One process on at most four cores; the workloads themselves are
	// single-threaded (fleet hosts run one worker each).
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	opt := options{seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *trace == 1, outDir: *outDir}
	if *smoke {
		opt.sz, opt.budget = sizeSmoke, 0 // the minimum number of trials
	}
	todo := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatalf("unknown workload %q", *name)
		}
		todo = []*workloadDef{w}
	}
	ctx := context.Background()

	if *repeat {
		seedSet := false
		flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
		if !seedSet {
			opt.seed = heldOutSeed
		}
		if !repeatCheck(ctx, todo, opt) {
			os.Exit(1)
		}
		return
	}

	for _, w := range todo {
		var line resultLine
		if opt.traced {
			res, err := traceRun(ctx, w, opt.seed, opt.sz, opt.outDir)
			if err != nil {
				fatalf("%v", err)
			}
			printTraced(res)
			line = newResultLine(res.ops, res.failed, tracedMetrics(), res.values)
		} else {
			res, err := measure(ctx, w, opt.seed, opt.sz, opt.budget)
			if err != nil {
				fatalf("%v", err)
			}
			printMeasured(res)
			line = newResultLine(res.ops, res.failed, endToEnd, res.metrics)
		}
		if *name != "" {
			b, err := json.Marshal(line)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Println(string(b))
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printMeasured prints one workload's end-to-end block: every metric by
// name with unit, direction and bound, the per-trial quartiles behind
// host_ns_per_op, the simulated results and their digest.
func printMeasured(res *result) {
	w := workloadByName(res.workload)
	fmt.Printf("== %s  (op = %s; %d timed trials of identical work after 1 warm-up, %d ops; outputs correct)\n",
		res.workload, w.op, len(res.samples), res.ops)
	var cpu, wall []float64
	for _, s := range res.samples {
		cpu, wall = append(cpu, s.nsPerOp), append(wall, s.wallNsPerOp)
	}
	_, med, q3 := quartiles(cpu)
	for _, m := range endToEnd {
		fmt.Printf("   %-20s %16.6g %-5s %s is better, bound %.0f%%", m.name, res.metrics[m.name], m.unit, m.better, 100*m.bound)
		if m.name == "host_ns_per_op" {
			fmt.Printf("  (CPU time, first quartile of %d trials; median %.6g, third quartile %.6g; by the wall clock %.6g)",
				len(cpu), med, q3, undisturbed(wall))
		}
		if m.name == "setup_s" {
			fmt.Printf("  (CPU time of a world build + one trial, first quartile of %d; the world build alone %.6g s)", len(cpu)+1, res.buildS)
		}
		fmt.Println()
	}
	for _, m := range simulated {
		if v, ok := res.sim[m.name]; ok {
			fmt.Printf("   %-20s %16.6g %-5s %s is better, bound 0: exact for a seed\n", m.name, v, m.unit, m.better)
		}
	}
	fmt.Printf("   %-20s %s\n", "sim_digest", res.digest)
}

// printTraced prints one workload's ladder: every rung's self time, and the
// per-layer metrics that are non-zero on this workload.
func printTraced(res *traceResult) {
	fmt.Printf("== %s traced: untraced host_ns_per_op %.6g in this invocation; spans in %s\n", res.workload, res.baseNs, res.file)
	fmt.Printf("   %-36s %12s %12s %14s\n", "rung (layer.name)", "self ms", "ops", "self ns/op")
	for _, k := range sortedKeys(res.rungs) {
		r := res.rungs[k]
		fmt.Printf("   %-36s %12.3f %12d %14.2f\n", k, float64(r.ns)/1e6, r.ops, r.perOp())
	}
	for _, m := range tracedMetrics() {
		if v := res.values[m.name]; v != 0 {
			fmt.Printf("   %-46s %14.6g %s\n", m.name, v, m.unit)
		}
	}
}

// repeatCheck runs two complete sets back to back and prints, per workload
// and end-to-end metric, how far the second set's value is from the first
// against that metric's bound. Simulated results, failed operations and the
// digest must match exactly. It reports whether everything held.
func repeatCheck(ctx context.Context, todo []*workloadDef, opt options) bool {
	var sets [2][]*result
	for i := range sets {
		for _, w := range todo {
			res, err := measure(ctx, w, opt.seed, opt.sz, opt.budget)
			if err != nil {
				fatalf("set %d: %v", i+1, err)
			}
			sets[i] = append(sets[i], res)
		}
	}
	ok := true
	fmt.Printf("repeat check on seed %d: set 2 against set 1\n", opt.seed)
	for wi, w := range todo {
		a, b := sets[0][wi], sets[1][wi]
		for _, m := range endToEnd {
			worse := (b.metrics[m.name] - a.metrics[m.name]) / a.metrics[m.name]
			verdict := "ok"
			if math.Abs(worse) > m.bound {
				verdict, ok = "BREACH", false
			}
			fmt.Printf("   %-16s %-20s %14.6g -> %14.6g  %+7.2f%% (bound %.0f%%)  %s\n",
				w.name, m.name, a.metrics[m.name], b.metrics[m.name], 100*worse, 100*m.bound, verdict)
		}
		exact := a.digest == b.digest && len(a.sim) == len(b.sim)
		for k, v := range a.sim {
			exact = exact && b.sim[k] == v
		}
		verdict := "identical"
		if !exact {
			verdict, ok = "DIFFER", false
		}
		fmt.Printf("   %-16s failed_ops_frac, sim_* and sim_digest %s (%s)\n", w.name, verdict, a.digest[:16])
	}
	return ok
}
