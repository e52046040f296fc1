package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mitigation"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, m2, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},                     // odd count
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},                    // even count
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25}, // the driver's ten runs
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, m2, q3 := quartiles(c.xs)
		if q1 != c.q1 || m2 != c.m2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m2, q3, c.q1, c.m2, c.q3)
		}
		if got := median(c.xs); got != c.m2 {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.m2)
		}
		if got := undisturbed(c.xs); got != c.q1 {
			t.Errorf("undisturbed(%v) = %v, want the first quartile %v", c.xs, got, c.q1)
		}
	}
	if q1, m2, q3 := quartiles(nil); q1 != 0 || m2 != 0 || q3 != 0 {
		t.Error("empty input must give zeros")
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100},              // root
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 40},   // child
		{ID: 3, Parent: 2, StartNs: 15, EndNs: 25},   // grandchild: nested, not a child of 1
		{ID: 4, Parent: 1, StartNs: 30, EndNs: 60},   // overlaps child 2 on [30,40)
		{ID: 5, Parent: 1, StartNs: 90, EndNs: 120},  // sticks out of the parent: clipped to [90,100)
		{ID: 6, Parent: 1, StartNs: 35, EndNs: 38},   // wholly inside the union already counted
		{ID: 7, Parent: 0, StartNs: 200, EndNs: 230}, // second root, no children
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (50 + 10), // children cover [10,60) and [90,100)
		2: 30 - 10,
		3: 10, 4: 30, 5: 30, 6: 3, 7: 30,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}
}

func TestTracerRungsSumSelfTimeByLayerName(t *testing.T) {
	tr := newTracer("w")
	tr.begin("a", "outer")
	tr.begin("b", "inner")
	time.Sleep(2 * time.Millisecond)
	tr.end(7)
	tr.end(1)
	tr.rung("b", "inner", 3, func() {})
	r := tr.rungs()
	if r["b.inner"].ops != 10 || r["a.outer"].ops != 1 {
		t.Fatalf("ops not summed per layer.name: %+v", r)
	}
	if r["b.inner"].ns < int64(2*time.Millisecond) || r["a.outer"].ns >= r["b.inner"].ns {
		t.Fatalf("outer's self time must exclude inner's: %+v", r)
	}
	var nilTracer *tracer // the untraced run
	nilTracer.begin("x", "y")
	nilTracer.end(1)
	if len(nilTracer.rungs()) != 0 {
		t.Fatal("nil tracer must record nothing")
	}
}

// allocWorld allocates a known number of heap objects per operation.
type allocWorld struct {
	ops, perOp int
	keep       [][]*int64
}

func (w *allocWorld) run(context.Context) (*outcome, error) {
	for i := 0; i < w.ops; i++ {
		objs := w.keep[i]
		for j := range objs {
			objs[j] = new(int64)
		}
	}
	return &outcome{ops: int64(w.ops), report: "fixed"}, nil
}
func (w *allocWorld) check(*outcome) error { return nil }
func (w *allocWorld) close()               {}

func TestAllocsPerOpAccounting(t *testing.T) {
	const ops, perOp = 20_000, 5
	def := &workloadDef{name: "alloc", build: func(int64, size, *tracer) (world, error) {
		w := &allocWorld{ops: ops, perOp: perOp, keep: make([][]*int64, ops)}
		for i := range w.keep { // set-up allocations stay outside the timed region
			w.keep[i] = make([]*int64, perOp)
		}
		return w, nil
	}}
	s, err := trialOnce(context.Background(), def, 1, sizeSmoke, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.allocsPerOp-perOp) > 0.01*perOp {
		t.Fatalf("allocs_per_op = %v, want %d (set-up allocations must not count)", s.allocsPerOp, perOp)
	}
	if math.Abs(s.allocBPerOp-8*perOp) > 0.01*8*perOp {
		t.Fatalf("alloc_bytes_per_op = %v, want %d", s.allocBPerOp, 8*perOp)
	}
	if s.liveHeapBytes < ops*perOp*8 {
		t.Fatalf("live heap %d B misses the %d B the world still holds", s.liveHeapBytes, ops*perOp*8)
	}
}

// TestCountingTargetForwardsUnchanged: one campaign through the counting
// wrapper produces the same report and the same flips as through the bare
// target, and the wrapper saw every call.
func TestCountingTargetForwardsUnchanged(t *testing.T) {
	campaign := func(wrap bool) (attack.Report, []dram.Flip, *countingTarget) {
		hh, err := bootHammerHost(dram.ProfileD(), core.ModeBaseline)
		if err != nil {
			t.Fatal(err)
		}
		defer hh.h.Shutdown()
		var target attack.Target = &attack.VMTarget{VM: hh.attacker}
		var ct *countingTarget
		if wrap {
			ct = &countingTarget{inner: target, tr: newTracer("t")}
			target = ct
		}
		fz := attack.NewFuzzer(attack.FuzzerConfig{
			Patterns: 2, WindowsPerPattern: 1, MaxActsPerWindow: hh.prof.MaxActsPerWindow / 4, FillPattern: 0xAA, Seed: 5,
		})
		rep, err := fz.Run(target)
		if err != nil {
			t.Fatal(err)
		}
		if ct != nil {
			ct.flush()
		}
		return rep, hh.h.Memory().Flips(), ct
	}
	bare, bareFlips, _ := campaign(false)
	wrapped, wrappedFlips, ct := campaign(true)
	if !reflect.DeepEqual(bare, wrapped) {
		t.Fatalf("report through the wrapper differs:\nbare    %+v\nwrapped %+v", bare, wrapped)
	}
	if !reflect.DeepEqual(bareFlips, wrappedFlips) {
		t.Fatalf("flips differ: %d bare, %d wrapped", len(bareFlips), len(wrappedFlips))
	}
	if ct.hammers == 0 || ct.fills == 0 || ct.checks != ct.fills || ct.windows == 0 || ct.acts < ct.hammers {
		t.Fatalf("wrapper miscounted: %+v", ct)
	}
	r := ct.tr.rungs()
	if r["attack.hammer"].ops != ct.hammers || r["attack.fill"].ops != ct.fills || r["dram.refresh_window"].ops != ct.windows {
		t.Fatalf("spans do not account for every call: %+v vs %+v", r, ct)
	}
}

// TestActDigestCountsAllHashesPrefix: the digest the serve ladder holds its
// replay to counts every activation, is sensitive to order and content inside
// the prefix, and ignores content beyond it.
func TestActDigestCountsAllHashesPrefix(t *testing.T) {
	stream := func(n int, swap bool) actDigest {
		var d actDigest
		for i := 0; i < n; i++ {
			ev := mitigation.Activation{Bank: i % 7, Row: i, Count: 1}
			if swap && i < 2 {
				ev.Row = 1 - i
			}
			d.add(ev)
		}
		return d
	}
	a, b := stream(actPrefix+10, false), stream(actPrefix+500, false)
	if a.n != actPrefix+10 || b.n != actPrefix+500 {
		t.Fatalf("counts %d, %d", a.n, b.n)
	}
	if a.sum != b.sum {
		t.Error("activations beyond the prefix changed the hash")
	}
	if c := stream(actPrefix+10, true); c.sum == a.sum {
		t.Error("swapping the first two rows left the hash unchanged")
	}
	if float64(a.sum>>11) == 0 {
		t.Error("digest is zero")
	}
}

// TestSmokeEveryWorkload runs all five workloads at smoke size through both
// the end-to-end and the traced path — the real code paths, correctness
// gates included — and checks that each layer shows up on its workload and
// nowhere else.
func TestSmokeEveryWorkload(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	start := time.Now()
	traced := map[string]map[string]float64{}
	for _, w := range workloads {
		res, err := measure(ctx, w, 3, sizeSmoke, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 || res.ops < 1 || len(res.digest) != 64 {
			t.Fatalf("%s: ops %d failed %d digest %q", w.name, res.ops, res.failed, res.digest)
		}
		for _, m := range endToEnd {
			if v := res.metrics[m.name]; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, v)
			}
		}
		tres, err := traceRun(ctx, w, 3, sizeSmoke, dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(tres.values) != len(tracedMetrics()) {
			t.Fatalf("%s: traced run reports %d metrics, want %d", w.name, len(tres.values), len(tracedMetrics()))
		}
		if fi, err := os.Stat(tres.file); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: trace file: %v", w.name, err)
		}
		traced[w.name] = tres.values
	}
	t.Logf("all five workloads, end to end and traced, at smoke size: %.1fs", time.Since(start).Seconds())

	only := func(metric string, on ...string) {
		t.Helper()
		want := map[string]bool{}
		for _, w := range on {
			want[w] = true
		}
		for name, vals := range traced {
			if got := vals[metric] != 0; got != want[name] {
				t.Errorf("%s on %s = %v; non-zero expected only on %v", metric, name, vals[metric], on)
			}
		}
	}
	only("memctrl.cache_ns_per_access", "serve-quiet", "serve-churn")
	only("workload.gen_ns_per_req", "serve-quiet", "serve-churn")
	only("mitigation.observe_ns_per_act.silver-bullet", "serve-churn", "stream-defended")
	only("mitigation.observe_ns_per_act.para", "stream-defended")
	only("mitigation.observe_ns_per_act.trr", "hammer-contain")
	only("dram.activate_ns_per_call", "hammer-contain")
	only("attack.hammer_ns_per_call", "hammer-contain")
	only("dram.scrub_mibps", "serve-churn", "fleet-churn")
	only("fleet.admit_us", "fleet-churn")
	only("fleet.round_ms", "fleet-churn")
	only("core.migrate_ms", "serve-churn", "fleet-churn")
	only("sim_gbps", "stream-defended")
	only("sim_admit_frac", "fleet-churn")
	if c := traced["serve-quiet"]["serve.ladder_coverage_frac"]; !(c > 0) {
		t.Errorf("serve-quiet ladder coverage %v: the replay covered nothing", c)
	}
}

// TestBenchmarkJSONMatchesCatalogue holds BENCHMARK.json to the metric
// catalogue and workload list this program actually reports.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, program has %q / %q", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d listed, program reports %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program has %s/%s/%s", kind, i, g, m.name, m.unit, m.better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.bound) {
				t.Errorf("%s %s: bound mismatch", kind, m.name)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, tracedMetrics(), false)
}
