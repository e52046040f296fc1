package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchResult is one benchmark's aggregated numbers.
type benchResult struct {
	// Pkg is the Go package the benchmark lives in.
	Pkg string `json:"pkg"`
	// Name is the benchmark name without the Benchmark prefix or the
	// -GOMAXPROCS suffix.
	Name string `json:"name"`
	// NsPerOp is the minimum ns/op observed across runs.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are from -benchmem; -1 when absent.
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Runs counts how many -count repetitions were aggregated.
	Runs int `json:"runs"`
}

// baseline is the JSON document siloz perf reads and writes.
type baseline struct {
	Schema     string        `json:"schema"`
	Date       string        `json:"date"`
	GoVersion  string        `json:"go_version"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// perfCmd turns `go test -bench` output into a stable JSON baseline and
// gates regressions against one.
//
// Capture mode (default) parses benchmark lines from stdin, keeps the
// minimum ns/op across repeated -count runs of the same benchmark (the
// minimum is the least noisy estimator of the true cost on a shared
// machine), and writes a sorted JSON document:
//
//	go test -bench=. -benchmem -count=3 ./... | siloz perf -o BENCH_2026-08-08.json
//
// Check mode compares fresh output against a committed baseline. It fails
// if any benchmark's allocs/op rose by more than max(1, 2 %) of the
// baseline's (a fixed rule: allocation counts repeat exactly, so they need no
// tunable slack). A ns/op regression beyond the tolerance is reported as a
// warning and does not fail: single-capture microbench timings on a shared
// machine swing by more than any tolerance worth setting, so a timing claim
// is carried by the repository benchmark's alternating pairs, not by this gate:
//
//	go test -bench=. -benchmem -count=2 ./... | siloz perf -check BENCH_2026-08-08.json -tolerance 20
//
// Benchmarks present on only one side are reported, in sorted order, but
// never fail the gate: the suite is expected to grow.
func perfCmd(inv *invocation, args []string) error {
	out := inv.fs.String("o", "", "write the JSON baseline to this file (default stdout)")
	check := inv.fs.String("check", "", "baseline JSON to compare against instead of capturing")
	tolerance := inv.fs.Float64("tolerance", 20, "ns/op regression in percent beyond which check mode warns")
	if err := inv.parse(args); err != nil {
		return err
	}

	results, err := parseBench(inv.stdin)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return errors.New("no benchmark lines found on stdin")
	}
	if *check != "" {
		return runCheck(inv.stdout, *check, results, *tolerance)
	}

	enc, err := json.MarshalIndent(baseline{
		Schema:     "siloz-bench/1",
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		Benchmarks: results,
	}, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "" {
		_, err = inv.stdout.Write(enc)
		return err
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(inv.stderr, "siloz perf: %d benchmarks -> %s\n", len(results), *out)
	return nil
}

// parseBench reads `go test -bench` output and aggregates repeated runs of the
// same benchmark, keyed by (pkg, name).
func parseBench(r io.Reader) ([]benchResult, error) {
	byKey := map[string]*benchResult{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// BenchmarkName[-P] N x ns/op [y B/op z allocs/op [metrics...]]
		if len(fields) < 4 {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		res := benchResult{Pkg: pkg, Name: name, BytesPerOp: -1, AllocsPerOp: -1, Runs: 1}
		found := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
				found = true
			case "B/op":
				res.BytesPerOp = int64(v)
			case "allocs/op":
				res.AllocsPerOp = int64(v)
			}
		}
		if !found {
			continue
		}
		key := pkg + "." + name
		prev, ok := byKey[key]
		if !ok {
			r := res
			byKey[key] = &r
			continue
		}
		prev.Runs++
		if res.NsPerOp < prev.NsPerOp {
			prev.NsPerOp = res.NsPerOp
		}
		if res.BytesPerOp >= 0 && (prev.BytesPerOp < 0 || res.BytesPerOp < prev.BytesPerOp) {
			prev.BytesPerOp = res.BytesPerOp
		}
		if res.AllocsPerOp >= 0 && (prev.AllocsPerOp < 0 || res.AllocsPerOp < prev.AllocsPerOp) {
			prev.AllocsPerOp = res.AllocsPerOp
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]benchResult, 0, len(byKey))
	for _, r := range byKey {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pkg != out[j].Pkg {
			return out[i].Pkg < out[j].Pkg
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

// allocsRegressed is the fixed allocs/op rule of check mode: more than
// max(1, 2 %) above the baseline. A side without -benchmem figures (-1) is
// not gated.
func allocsRegressed(old, cur int64) bool {
	if old < 0 || cur < 0 {
		return false
	}
	return float64(cur-old) > max(1, 0.02*float64(old))
}

// runCheck compares current results against the baseline file: it warns on
// any ns/op regression beyond tolerance percent and fails on any allocs/op
// regression beyond the fixed rule.
func runCheck(w io.Writer, path string, current []benchResult, tolerance float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	baseBy := map[string]benchResult{}
	for _, r := range base.Benchmarks {
		baseBy[r.Pkg+"."+r.Name] = r
	}
	regressions, slower := 0, 0
	for _, cur := range current {
		key := cur.Pkg + "." + cur.Name
		old, ok := baseBy[key]
		if !ok {
			fmt.Fprintf(w, "NEW       %-60s %10.1f ns/op\n", key, cur.NsPerOp)
			continue
		}
		delete(baseBy, key)
		delta := 100 * (cur.NsPerOp - old.NsPerOp) / old.NsPerOp
		allocs := ""
		if allocsRegressed(old.AllocsPerOp, cur.AllocsPerOp) {
			allocs = fmt.Sprintf(", %d -> %d allocs/op", old.AllocsPerOp, cur.AllocsPerOp)
		}
		status := "ok"
		switch {
		case allocs != "":
			status = "REGRESSED"
			regressions++
		case delta > tolerance:
			status = "SLOWER"
			slower++
		}
		fmt.Fprintf(w, "%-9s %-60s %10.1f -> %10.1f ns/op (%+.1f%%)%s\n",
			status, key, old.NsPerOp, cur.NsPerOp, delta, allocs)
	}
	missing := make([]string, 0, len(baseBy))
	for key := range baseBy {
		missing = append(missing, key)
	}
	sort.Strings(missing)
	for _, key := range missing {
		fmt.Fprintf(w, "MISSING   %-60s (in baseline, not in run)\n", key)
	}
	if slower > 0 {
		fmt.Fprintf(w, "siloz perf: warning: %d benchmark(s) slower than %s by more than %.0f%% ns/op (advisory: not a failure)\n",
			slower, path, tolerance)
	}
	if regressions > 0 {
		return fmt.Errorf("%d benchmark(s) regressed vs %s (allocs/op by more than max(1, 2%%))", regressions, path)
	}
	fmt.Fprintf(w, "siloz perf: no allocs/op regression vs %s (%d benchmarks)\n", path, len(current))
	return nil
}
