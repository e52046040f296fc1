package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// siloz runs one invocation in-process and returns its exit status and
// streams.
func siloz(stdin string, args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

// TestDispatch pins the front door: a missing or unknown subcommand prints
// usage on stderr and exits 2 with nothing on stdout; help exits 0.
func TestDispatch(t *testing.T) {
	for _, args := range [][]string{{}, {"nope"}, {"siloz-bench"}} {
		code, out, errs := siloz("", args...)
		if code != 2 || out != "" || !strings.Contains(errs, "usage: siloz <command>") {
			t.Errorf("siloz %v: exit %d, stdout %q, stderr %q; want usage on stderr and exit 2", args, code, out, errs)
		}
	}
	if code, _, errs := siloz("", "nope"); code != 2 || !strings.Contains(errs, `unknown command "nope"`) {
		t.Errorf("unknown command not named: exit %d, stderr %q", code, errs)
	}
	for _, gone := range []string{"fleet", "serve", "sim"} {
		if code, _, errs := siloz("", gone); code != 2 || !strings.Contains(errs, "unknown command") {
			t.Errorf("siloz %s: exit %d, stderr %q; want an unknown command", gone, code, errs)
		}
	}
	code, _, errs := siloz("", "help")
	var listed []string
	for _, l := range strings.Split(errs, "\n") {
		if strings.HasPrefix(l, "  ") {
			listed = append(listed, strings.Fields(l)[0])
		}
	}
	if want := []string{"bench", "blacksmith", "infer", "topology", "audit", "perf"}; code != 0 || !slices.Equal(listed, want) {
		t.Errorf("siloz help: exit %d, commands %v, want %v", code, listed, want)
	}
	// A flag a subcommand does not take, or a count out of its range, is a
	// usage error reported by name before any work.
	for _, bad := range [][]string{
		{"topology", "-seed", "3"},
		{"blacksmith", "-mode", "baseline"},
		{"bench", "-csv", "out"},
		{"blacksmith", "-vm-gib", "-1"},
		{"audit", "-vm-gib", "0"},
		{"audit", "-tenants", "-1"},
		{"infer", "-adjacency", "-pairs", "0"},
	} {
		if code, out, errs := siloz("", bad...); code != 2 || out != "" || !strings.Contains(errs, bad[1]) {
			t.Errorf("siloz %v: exit %d, stdout %q, stderr %q", bad, code, out, errs)
		}
	}
}

// TestBenchList pins `siloz bench -list`: the 24 registry names, one per
// line, in canonical order.
func TestBenchList(t *testing.T) {
	code, out, _ := siloz("", "bench", "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	got := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(got) != 24 || !reflect.DeepEqual(got, experiments.Names()) {
		t.Errorf("bench -list printed %d names %v, want the registry's 24 in order", len(got), got)
	}
	if got[0] != "table3" || got[23] != "serving-slo" {
		t.Errorf("canonical order broken: first %q, last %q", got[0], got[23])
	}
}

// TestBenchUnknownExperiment: one bad name in -exp fails the invocation
// before any experiment has started — nothing rendered, no progress line.
func TestBenchUnknownExperiment(t *testing.T) {
	code, out, errs := siloz("", "bench", "-quick", "-exp", "overhead,nope")
	if code != 1 || out != "" {
		t.Errorf("exit %d, stdout %q; want exit 1 and no output", code, out)
	}
	if !strings.Contains(errs, `unknown experiment "nope"`) || !strings.Contains(errs, "-list") || strings.Contains(errs, "==>") {
		t.Errorf("stderr %q; want the bad name, a pointer to -list, and no progress", errs)
	}
}

// TestAuditIsDeterministic: `siloz audit` stamps its record of the boot,
// creates and pins with a sequence number and never a clock reading, so two
// runs emit the same bytes like every other subcommand — and the bytes of
// the committed goldens, under the default and a one-tenant invocation.
func TestAuditIsDeterministic(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"audit.golden.txt", nil},
		{"audit-tenants1-nohammer.golden.txt", []string{"-tenants", "1", "-hammer=false"}},
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		args := append([]string{"audit"}, c.args...)
		code, out, errs := siloz("", args...)
		if code != 0 || !strings.Contains(out, "audit: all invariants hold") {
			t.Fatalf("siloz %v: exit %d, stderr %q, stdout:\n%s", args, code, errs, out)
		}
		if out != string(want) {
			t.Errorf("siloz %v differs from testdata/%s:\n%s", args, c.golden, out)
		}
		if _, again, _ := siloz("", args...); again != out {
			t.Errorf("two runs of siloz %v differ", args)
		}
	}
}

// TestBenchFlagsReachParams: the shared command-line flags reach the
// experiments' parameters — bench's planner binds exactly what
// experiments.Select binds for the same Flags, with -seed marked set only
// when given.
func TestBenchFlagsReachParams(t *testing.T) {
	for _, c := range []struct {
		args []string
		want experiments.Flags
	}{
		{nil, experiments.Flags{}},
		{[]string{"-quick"}, experiments.Flags{Quick: true}},
		{[]string{"-quick", "-seed", "5", "-reps", "2", "-ops", "900", "-patterns", "7", "-parallel", "3"},
			experiments.Flags{Quick: true, Seed: 5, SeedSet: true, Reps: 2, Ops: 900, Patterns: 7}},
	} {
		if c.want.Seed == 0 {
			c.want.Seed = 1 // -seed's default
		}
		for _, name := range []string{"fleet-churn", "serving-slo", "table3"} {
			args := append([]string{"-exp", name}, c.args...)
			jobs, err := benchJobs(newInvocation("bench", nil, io.Discard, io.Discard), args)
			want, werr := experiments.Select(name, c.want)
			if err != nil || werr != nil || len(jobs) != 1 || !reflect.DeepEqual(jobs[0].Params, want[0].Params) {
				t.Errorf("bench %v resolved differently from Select(%+v): %v, %v", args, c.want, err, werr)
			}
		}
	}
}

// TestBenchRendering drives two cheap experiments through the real driver:
// JSON is one document per experiment, text separates experiments with a
// blank line, and stdout is byte-identical at any -parallel width.
func TestBenchRendering(t *testing.T) {
	code, js, errs := siloz("", "bench", "-quick", "-exp", "overhead,zebram", "-json", "-parallel", "1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	dec := json.NewDecoder(strings.NewReader(js))
	for _, want := range []string{"overhead", "zebram"} {
		var r experiments.Result
		if err := dec.Decode(&r); err != nil || r.Name != want {
			t.Fatalf("JSON document: name %q, err %v; want %q", r.Name, err, want)
		}
	}
	if !strings.Contains(errs, "==> zebram") || !strings.Contains(errs, "done: 2 experiments") {
		t.Errorf("progress missing from stderr: %q", errs)
	}
	if _, js8, _ := siloz("", "bench", "-quick", "-exp", "overhead,zebram", "-json", "-parallel", "8"); js8 != js {
		t.Error("JSON differs between -parallel 1 and -parallel 8")
	}
	_, text, _ := siloz("", "bench", "-quick", "-exp", "overhead,zebram")
	if !strings.HasSuffix(text, "PASS (subarray groups contain all flips at ~0% cost)\n\n") || strings.Count(text, "\n\n") != 2 {
		t.Errorf("text rendering lost its blank-line separators:\n%s", text)
	}
}

// TestFailingCheckFailsTheRun: the job runner renders a result whose check
// fails and then fails the invocation.
func TestFailingCheckFailsTheRun(t *testing.T) {
	failing := experiments.Experiment{
		Name: "doomed",
		Run: func(context.Context, *experiments.Pool, any) (*experiments.Result, error) {
			return &experiments.Result{Name: "doomed", Title: "Doomed",
				Checks: []experiments.Check{{Name: "holds", Pass: false}}}, nil
		},
	}
	var out bytes.Buffer
	inv := newInvocation("test", nil, &out, io.Discard)
	err := inv.runJobs([]experiments.Job{{Experiment: failing}})
	if err == nil || !strings.Contains(err.Error(), "failing checks") {
		t.Errorf("err = %v, want a failing-checks error", err)
	}
	if !strings.Contains(out.String(), "check holds: FAIL") {
		t.Errorf("result not rendered before failing:\n%s", out.String())
	}
}

// TestTimeout: -timeout aborts the run with the context's error.
func TestTimeout(t *testing.T) {
	code, out, errs := siloz("", "bench", "-quick", "-exp", "blp", "-timeout", "1ns")
	if code != 1 || out != "" || !strings.Contains(errs, "context deadline exceeded") {
		t.Errorf("exit %d, stdout %q, stderr %q", code, out, errs)
	}
}

const benchOutput = `pkg: repro/internal/addr
BenchmarkDecode-8   	 1000000	       10.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkDecode-8   	 1000000	        9.0 ns/op	       0 B/op	       0 allocs/op
pkg: repro/internal/dram
BenchmarkActivate-8 	  500000	       40.0 ns/op
`

// TestPerf pins capture (minimum ns/op across -count runs, sorted) and the
// check's two outcomes: a ns/op regression beyond the tolerance is a warning
// on an exit status of 0, an allocs/op regression fails.
func TestPerf(t *testing.T) {
	code, out, errs := siloz(benchOutput, "perf")
	if code != 0 {
		t.Fatalf("capture: exit %d: %s", code, errs)
	}
	var doc baseline
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 2 || doc.Benchmarks[0].Name != "Decode" || doc.Benchmarks[0].NsPerOp != 9 || doc.Benchmarks[0].Runs != 2 {
		t.Errorf("captured %+v", doc.Benchmarks)
	}
	base := t.TempDir() + "/base.json"
	if code, _, errs := siloz(benchOutput, "perf", "-o", base); code != 0 {
		t.Fatalf("capture to file: exit %d: %s", code, errs)
	}
	if code, out, _ := siloz(benchOutput, "perf", "-check", base); code != 0 || !strings.Contains(out, "no allocs/op regression") {
		t.Errorf("self-check: exit %d, stdout %q", code, out)
	}
	slower := strings.ReplaceAll(benchOutput, "40.0 ns/op", "90.0 ns/op")
	if code, out, errs := siloz(slower, "perf", "-check", base, "-tolerance", "20"); code != 0 || errs != "" ||
		!strings.Contains(out, "SLOWER") || !strings.Contains(out, "warning: 1 benchmark(s) slower") || strings.Contains(out, "REGRESSED") {
		t.Errorf("ns/op beyond the tolerance must warn and pass: exit %d, stdout %q, stderr %q", code, out, errs)
	}
	if code, out, _ := siloz(slower, "perf", "-check", base, "-tolerance", "200"); code != 0 || strings.Contains(out, "SLOWER") || strings.Contains(out, "warning") {
		t.Errorf("ns/op inside the tolerance warned: exit %d, stdout %q", code, out)
	}
	leaky := strings.ReplaceAll(slower, "0 allocs/op", "2 allocs/op")
	if code, out, errs := siloz(leaky, "perf", "-check", base, "-tolerance", "20"); code != 1 ||
		!strings.Contains(out, "REGRESSED") || !strings.Contains(out, "SLOWER") || !strings.Contains(errs, "regressed") {
		t.Errorf("allocs/op regression beside a slower benchmark must fail: exit %d, stdout %q, stderr %q", code, out, errs)
	}
	if code, _, _ := siloz("no benchmarks here\n", "perf"); code != 1 {
		t.Errorf("empty input: exit %d, want 1", code)
	}
}

// perfCheck runs `siloz perf -check` of current against a baseline captured
// from base.
func perfCheck(t *testing.T, base, current string) (code int, out string) {
	t.Helper()
	path := t.TempDir() + "/base.json"
	if code, _, errs := siloz(base, "perf", "-o", path); code != 0 {
		t.Fatalf("capture: exit %d: %s", code, errs)
	}
	code, out, _ = siloz(current, "perf", "-check", path)
	return code, out
}

// TestPerfCheckGatesAllocs: allocs/op above the baseline by more than
// max(1, 2 %) fails the gate at unchanged ns/op; at or under the rule, a
// fall, and a side without -benchmem figures all pass.
func TestPerfCheckGatesAllocs(t *testing.T) {
	line := func(allocs string) string {
		return "pkg: repro/internal/serve\nBenchmarkServeLoop-8 \t 100\t 5000 ns/op\t 64 B/op\t " + allocs + "\n"
	}
	for _, c := range []struct {
		base, cur string
		regressed bool
	}{
		{"0 allocs/op", "1 allocs/op", false}, // +1 is inside max(1, 2%)
		{"0 allocs/op", "2 allocs/op", true},
		{"66 allocs/op", "67 allocs/op", false},
		{"66 allocs/op", "68 allocs/op", true},
		{"1000 allocs/op", "1020 allocs/op", false}, // exactly 2%
		{"1000 allocs/op", "1021 allocs/op", true},
		{"1000 allocs/op", "3 allocs/op", false},
	} {
		code, out := perfCheck(t, line(c.base), line(c.cur))
		if got := code == 1 && strings.Contains(out, "REGRESSED") && strings.Contains(out, "allocs/op"); got != c.regressed {
			t.Errorf("%s -> %s: exit %d, regressed = %v, want %v:\n%s", c.base, c.cur, code, got, c.regressed, out)
		}
	}
	// benchOutput's Activate line carries no -benchmem figures.
	if code, out := perfCheck(t, benchOutput, benchOutput); code != 0 {
		t.Errorf("absent allocs gated: exit %d:\n%s", code, out)
	}
}

// TestPerfCheckMissingIsSorted: baseline entries absent from the run print
// in key order, not map order, so two checks of the same inputs are equal
// byte for byte.
func TestPerfCheckMissingIsSorted(t *testing.T) {
	var base strings.Builder
	base.WriteString("pkg: repro/internal/addr\n")
	var want []string
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&base, "BenchmarkGone%02d-8 \t 100\t 10.0 ns/op\n", i)
		want = append(want, fmt.Sprintf("repro/internal/addr.Gone%02d", i))
	}
	base.WriteString("BenchmarkStays-8 \t 100\t 10.0 ns/op\n")
	code, out := perfCheck(t, base.String(), "pkg: repro/internal/addr\nBenchmarkStays-8 \t 100\t 10.0 ns/op\n")
	if code != 0 {
		t.Fatalf("missing benchmarks failed the gate: exit %d:\n%s", code, out)
	}
	var got []string
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) > 1 && f[0] == "MISSING" {
			got = append(got, f[1])
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("MISSING lines = %v, want %v", got, want)
	}
}

// TestTopologyNamesWhyALayoutIsArtificial boots `siloz topology` at the
// subarray sizes `make tools` runs: 640 rows (a non-power-of-two, on a bank
// trimmed to whole 1024-row groups) and 256 rows (below the evaluation
// DIMMs' 512-row transform block) form artificial groups of at least 512
// rows and say why; the platform default forms none.
func TestTopologyNamesWhyALayoutIsArtificial(t *testing.T) {
	for _, c := range []struct {
		rows, managed string
		reason        string
	}{
		{"640", "1024", "artificial:      yes (non-power-of-two subarray size, §6)\n"},
		{"256", "512", "artificial:      yes (256-row subarrays below the transforms' 512-row block, §6)\n"},
		{"1024", "1024", ""},
	} {
		code, out, errs := siloz("", "topology", "-subarray-rows", c.rows)
		if code != 0 {
			t.Fatalf("-subarray-rows %s: exit %d, stderr %q", c.rows, code, errs)
		}
		if !strings.Contains(out, "managed group:   "+c.managed+" rows/subarray") ||
			strings.Contains(out, "artificial:") != (c.reason != "") || !strings.Contains(out, c.reason) {
			t.Errorf("-subarray-rows %s: want %s-row groups and artificial line %q, got:\n%s", c.rows, c.managed, c.reason, out)
		}
	}
}
