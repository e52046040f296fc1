package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// quickJobs binds the named experiments to their -quick parameters.
func quickJobs(t *testing.T, names string) []Job {
	t.Helper()
	jobs, err := Select(names, Flags{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// renderRun executes the jobs through RunAll on a pool of the given width
// and returns the concatenated text and JSON renderings, in delivery order.
func renderRun(t *testing.T, jobs []Job, width int) (string, []byte) {
	t.Helper()
	var text strings.Builder
	var js bytes.Buffer
	_, err := RunAll(context.Background(), jobs, NewPool(width), func(r *Result, _ time.Duration) {
		text.WriteString(RenderText(r))
		out, err := RenderJSON(r)
		if err != nil {
			t.Fatal(err)
		}
		js.Write(out)
	})
	if err != nil {
		t.Fatal(err)
	}
	return text.String(), js.Bytes()
}

// TestParallelDeterminism is the API's core guarantee: a width-1 pool and a
// width-8 pool produce byte-identical output, for both renderers, across a
// mix of rep-fanned (fig5), DIMM-fanned (table3), monolithic (overhead,
// zebram) and sweep-folded (the four lifecycle studies) experiments.
func TestParallelDeterminism(t *testing.T) {
	jobs := quickJobs(t, "table3,fig5,overhead,zebram,ballooning,hotplug,migration,ept-relocation")
	sec := quickSecurity()
	sec.Patterns = 4 // enough to fan out across DIMMs; flips are not this test's subject
	jobs[0].Params = sec
	jobs[1].Params = quickPerf()
	// -quick ballooning and hotplug have one cell each: nothing to fold.
	jobs[4].Params = balloonConfig(Flags{})
	jobs[5].Params = hotplugConfig(Flags{})

	text1, js1 := renderRun(t, jobs, 1)
	text8, js8 := renderRun(t, jobs, 8)
	if text1 != text8 {
		t.Errorf("text output differs between -parallel 1 and -parallel 8:\n--- width 1 ---\n%s\n--- width 8 ---\n%s", text1, text8)
	}
	if !bytes.Equal(js1, js8) {
		t.Errorf("JSON output differs between -parallel 1 and -parallel 8")
	}
	// And a nil pool (pure inline execution) matches too.
	var inline strings.Builder
	for _, j := range jobs {
		r, err := j.Run(context.Background(), nil, j.Params)
		if err != nil {
			t.Fatal(err)
		}
		inline.WriteString(RenderText(r))
	}
	if inline.String() != text1 {
		t.Error("inline (nil pool) output differs from pooled output")
	}
}

// TestRunAllStreamsInOrder verifies onDone delivery follows input order, not
// completion order, regardless of experiment cost imbalance.
func TestRunAllStreamsInOrder(t *testing.T) {
	names := []string{"overhead", "softrefresh", "fragmentation", "ddr5"}
	var got []string
	results, err := RunAll(context.Background(), quickJobs(t, strings.Join(names, ",")), NewPool(4),
		func(r *Result, _ time.Duration) { got = append(got, r.Name) })
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(names) {
		t.Fatalf("results = %d, want %d", len(results), len(names))
	}
	for i, n := range names {
		if got[i] != n {
			t.Fatalf("delivery order %v, want %v", got, names)
		}
		if results[i].Name != n {
			t.Fatalf("results[%d] = %s, want %s", i, results[i].Name, n)
		}
	}
}

// TestRunAllFirstErrorWins verifies the first in-order failure is reported,
// wrapped with the experiment name, and cancels the remaining work.
func TestRunAllFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	jobs := []Job{
		{Experiment: fakeExp("ok", nil)},
		{Experiment: fakeExp("bad", boom)},
		{Experiment: fakeExp("after", nil)},
	}
	var delivered []string
	_, err := RunAll(context.Background(), jobs, NewPool(2),
		func(r *Result, _ time.Duration) { delivered = append(delivered, r.Name) })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "bad:") {
		t.Errorf("error %q not prefixed with the failing experiment", err)
	}
	// Only experiments before the failure may have been delivered.
	for _, n := range delivered {
		if n != "ok" {
			t.Errorf("delivered %q after the failure point", n)
		}
	}
}

// fakeExp is a trivial parameterless experiment for scheduler-level tests.
func fakeExp(name string, err error) Experiment {
	return fixed(name, func(context.Context, *Pool) (*Result, error) {
		if err != nil {
			return nil, err
		}
		return &Result{Name: name, Title: name}, nil
	})
}

// TestCancellationPropagates verifies a long experiment returns promptly —
// with a context error — once the caller cancels.
func TestCancellationPropagates(t *testing.T) {
	cfg := perfConfig(Flags{})
	cfg.Ops = 500_000 // far more work than the deadline allows
	cfg.Reps = 8
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	e, ok := Get("fig4")
	if !ok {
		t.Fatal("fig4 not registered")
	}
	start := time.Now()
	_, err := e.Run(ctx, NewPool(2), cfg)
	if err == nil {
		t.Fatal("Run completed despite cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("Run took %v to notice cancellation", d)
	}
}

// TestPoolMapErrors verifies Map reports the lowest-index error and that a
// canceled context stops launching tasks.
func TestPoolMapErrors(t *testing.T) {
	p := NewPool(4)
	err := p.Map(context.Background(), 8, func(i int) error {
		if i == 6 || i == 3 {
			return fmt.Errorf("task %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "task 3" {
		t.Fatalf("err = %v, want lowest-index task 3", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	if err := p.Map(ctx, 4, func(i int) error { ran++; return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Errorf("%d tasks ran under a pre-canceled context", ran)
	}
}

// TestRepSeedScheme pins the per-rep seed derivation: rep i draws from
// base + i*7919.
func TestRepSeedScheme(t *testing.T) {
	if got := RepSeed(1, 0); got != 1 {
		t.Errorf("RepSeed(1,0) = %d", got)
	}
	if got := RepSeed(1, 3); got != 1+3*7919 {
		t.Errorf("RepSeed(1,3) = %d", got)
	}
}

// TestRegistry pins the registry's contents and lookup behavior.
func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 24 {
		t.Fatalf("registry has %d experiments, want 24", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate experiment name %q", n)
		}
		seen[n] = true
		e, ok := Get(n)
		if !ok || e.Name != n {
			t.Fatalf("Get(%q) inconsistent", n)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get of unknown name succeeded")
	}
	for _, want := range []string{"table3", "ept", "fig4", "fig5", "fig67", "blp",
		"overhead", "softrefresh", "remaps", "gbpages", "ecc", "fragmentation",
		"migration", "ballooning", "hotplug", "ddr5", "drama", "actrates", "zebram",
		"ept-relocation", "fleet-churn", "lifecycle-attack", "mitigation-matrix",
		"serving-slo"} {
		if !seen[want] {
			t.Errorf("experiment %q missing from registry", want)
		}
	}
}

// TestEveryQuickResultIsNamedAndJudged runs the whole registry at -quick scale
// and holds every Result to the contract renderers and trajectory tooling
// rely on, so a new experiment is covered the day it is registered: the
// Result carries its registry name and a title, says something checkable (at
// least one check or scalar), keeps row cells parallel to its columns, and
// passes its own checks.
func TestEveryQuickResultIsNamedAndJudged(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 24 experiments at -quick scale (~10 s)")
	}
	jobs := quickJobs(t, "all")
	results, err := RunAll(context.Background(), jobs, NewPool(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		name := jobs[i].Name
		if r.Name != name {
			t.Errorf("%s: Result is named %q", name, r.Name)
		}
		if r.Title == "" {
			t.Errorf("%s: no title", name)
		}
		if len(r.Checks)+len(r.Scalars) == 0 {
			t.Errorf("%s: neither a check nor a scalar", name)
		}
		for _, row := range r.Rows {
			if len(row.Cells) != len(r.Columns) {
				t.Errorf("%s: row %q has %d cells under %d columns", name, row.Label, len(row.Cells), len(r.Columns))
			}
		}
		for _, c := range r.Checks {
			if !c.Pass {
				t.Errorf("%s: check %s failed: %s", name, c.Name, c.Detail)
			}
		}
	}
}

// TestRenderers pins the render formats on a synthetic result.
func TestRenderers(t *testing.T) {
	r := &Result{
		Name:    "fake",
		Title:   "Fake experiment",
		Columns: []string{"count", "ok"},
		Units:   []string{"ops", ""},
		Rows: []Row{
			{Label: "alpha", Cells: []any{42, true}},
			{Label: "beta", Cells: []any{7, false}},
		},
		Series: []Series{{Name: "overhead", Unit: "%", Points: []Point{
			{Label: "redis-a", Value: 0.5, CI: 0.3},
			{Label: "geomean", Value: 0.12},
		}}},
	}
	r.scalar("answer", 42)
	r.check("sane", true, "all good")

	text := RenderText(r)
	for _, want := range []string{"Fake experiment", "count (ops)", "alpha", "yes",
		"overhead", "geomean", "answer", "check sane: PASS (all good)"} {
		if !strings.Contains(text, want) {
			t.Errorf("text missing %q:\n%s", want, text)
		}
	}

	js1, err := RenderJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	js2, err := RenderJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js1, js2) {
		t.Error("JSON rendering not deterministic")
	}
	for _, want := range []string{`"name": "fake"`, `"scalars"`, `"answer": 42`} {
		if !strings.Contains(string(js1), want) {
			t.Errorf("JSON missing %q:\n%s", want, js1)
		}
	}
}
