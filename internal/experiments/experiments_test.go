package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/geometry"
)

// quickSecurity shrinks the campaign for unit testing.
func quickSecurity() SecurityConfig {
	cfg := securityConfig(Flags{})
	cfg.Geometry = geometry.Geometry{
		Sockets: 2, CoresPerSocket: 4, DIMMsPerSocket: 2, RanksPerDIMM: 2,
		BanksPerRank: 4, RowsPerBank: 2048, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: 512,
	}
	cfg.Patterns = 10
	return cfg
}

// quickTable3 runs table3 inline (nil pool) on quickSecurity once for the
// whole package: the run is deterministic, so the containment test, the
// ranks-and-banks test and the scheduler's inline-vs-pooled comparison all
// read the same result instead of each repeating the campaign.
var quickTable3 = sync.OnceValues(func() (*Result, error) {
	return table3Exp(context.Background(), nil, quickSecurity())
})

func TestTable3ContainmentQuick(t *testing.T) {
	r, err := quickTable3()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (DIMMs A-F)", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Cells[0].(int) == 0 {
			t.Errorf("DIMM %s: no flips inside the group; campaign ineffective", row.Label)
		}
		if out := row.Cells[1].(int); out != 0 {
			t.Errorf("DIMM %s: %d flips escaped the subarray group", row.Label, out)
		}
	}
	out := RenderText(r)
	if !strings.Contains(out, "Table 3") || !strings.Contains(out, "check contained: PASS") {
		t.Errorf("containment violated or render malformed:\n%s", out)
	}
}

// rowOf returns the result's row with the given label.
func rowOf(t *testing.T, r *Result, label string) Row {
	t.Helper()
	for _, row := range r.Rows {
		if row.Label == label {
			return row
		}
	}
	t.Fatalf("%s: no row %q", r.Name, label)
	return Row{}
}

// passed reports whether the result's named check passed.
func passed(t *testing.T, r *Result, name string) bool {
	t.Helper()
	for _, c := range r.Checks {
		if c.Name == name {
			return c.Pass
		}
	}
	t.Fatalf("%s: no check %q", r.Name, name)
	return false
}

// scalarOf returns the result's named scalar.
func scalarOf(t *testing.T, r *Result, name string) float64 {
	t.Helper()
	v, ok := r.Scalars[name]
	if !ok {
		t.Fatalf("result %q has no scalar %q", r.Name, name)
	}
	return v
}

func TestEPTProtectionQuick(t *testing.T) {
	r, err := eptExp(context.Background(), nil, quickSecurity())
	if err != nil {
		t.Fatal(err)
	}
	if n := scalarOf(t, r, "protected_flips"); n != 0 {
		t.Errorf("protected rows flipped %v times", n)
	}
	if scalarOf(t, r, "unprotected_flips") == 0 {
		t.Error("unprotected control rows did not flip; experiment vacuous")
	}
	if !passed(t, r, "translations_intact") {
		t.Error("EPT translations corrupted despite guard rows")
	}
	if !r.Passed() {
		t.Errorf("ept checks failed: %+v", r.Checks)
	}
	if !strings.Contains(RenderText(r), "protected") {
		t.Error("render malformed")
	}
}

// quickPerf shrinks the performance experiments for unit testing.
func quickPerf() PerfConfig {
	cfg := perfConfig(Flags{Quick: true})
	cfg.Ops = 4000
	cfg.Reps = 2
	return cfg
}

// bars returns a figure series' per-workload points, without the closing
// geomean point.
func bars(t *testing.T, s Series) []Point {
	t.Helper()
	last := len(s.Points) - 1
	if last < 0 || s.Points[last].Label != "geomean" {
		t.Fatalf("series %s does not close with its geomean: %+v", s.Name, s.Points)
	}
	return s.Points[:last]
}

func TestFig4Quick(t *testing.T) {
	r, err := fig4Exp(context.Background(), nil, quickPerf())
	if err != nil {
		t.Fatal(err)
	}
	// redis a-f, terasort, spec, parsec = 9 bars.
	if len(r.Series) != 1 || len(bars(t, r.Series[0])) != 9 {
		t.Fatalf("series = %+v, want one of 9 bars", r.Series)
	}
	if !passed(t, r, "within_half_percent") {
		t.Errorf("geomean overhead %.2f%% outside ±0.5%% (paper's headline claim)", scalarOf(t, r, "geomean_overhead_pct"))
	}
	for _, b := range bars(t, r.Series[0]) {
		if b.Value > 3 || b.Value < -3 {
			t.Errorf("bar %s overhead %.2f%% implausibly large", b.Label, b.Value)
		}
	}
	if !strings.Contains(RenderText(r), "geomean") {
		t.Error("render malformed")
	}
}

func TestFig5Quick(t *testing.T) {
	r, err := fig5Exp(context.Background(), nil, quickPerf())
	if err != nil {
		t.Fatal(err)
	}
	// memcached, mysql, 5 MLC modes = 7 bars.
	if len(r.Series) != 1 || len(bars(t, r.Series[0])) != 7 {
		t.Fatalf("series = %+v, want one of 7 bars", r.Series)
	}
	if !passed(t, r, "within_half_percent") {
		t.Errorf("geomean overhead %.2f%% outside ±0.5%%", scalarOf(t, r, "geomean_overhead_pct"))
	}
}

func TestSizeSensitivityQuick(t *testing.T) {
	r, err := fig67Exp(context.Background(), nil, quickPerf())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 4 {
		t.Fatalf("sweep produced %d figures, want 4 (two metrics x two sizes)", len(r.Series))
	}
	for _, s := range r.Series {
		if len(bars(t, s)) == 0 {
			t.Fatalf("figure %q empty", s.Name)
		}
		if !passed(t, r, s.Name+"_within_half_percent") {
			t.Errorf("%s geomean %.2f%% outside ±0.5%% (§7.4: no trend with subarray size)", s.Name, scalarOf(t, r, s.Name+"_geomean_pct"))
		}
	}
}

func TestBankLevelParallelism(t *testing.T) {
	r, err := blpExp(context.Background(), nil, quickPerf())
	if err != nil {
		t.Fatal(err)
	}
	if pct := scalarOf(t, r, "blp_benefit_pct"); pct < 18 {
		t.Errorf("BLP benefit %.1f%%, paper cites >18%%", pct)
	}
}

func TestOverheadComparison(t *testing.T) {
	r, err := overheadExp(context.Background(), nil, quickPerf())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 5 {
		t.Fatal("too few schemes")
	}
	siloz := rowOf(t, r, "Siloz EPT block (b=32)").Cells[0].(float64)
	zebram80 := rowOf(t, r, "ZebRAM (4 guards/row, modern)").Cells[0].(float64)
	// §5.4: ~0.024% of each bank.
	if siloz < 0.02 || siloz > 0.03 {
		t.Errorf("Siloz EPT reservation %.4f%%, want ~0.024%%", siloz)
	}
	if zebram80 != 80 {
		t.Errorf("ZebRAM modern = %v, want 80", zebram80)
	}
	if !strings.Contains(RenderText(r), "ZebRAM") {
		t.Error("render malformed")
	}
}

func TestSoftRefreshComparison(t *testing.T) {
	r, err := softRefreshExp(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !passed(t, r, "deadlines_missed") {
		t.Error("§8.3: both models must miss deadlines")
	}
	if scalarOf(t, r, "task_miss_rate") <= scalarOf(t, r, "tick_miss_rate") {
		t.Error("task model should miss more than tick model")
	}
}

func TestRemapHandling(t *testing.T) {
	r, err := remapsExp(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cells: artificial, managed rows, reserved %.
	for _, p2 := range []int{512, 1024, 2048} {
		c := rowOf(t, r, fmt.Sprintf("%d-row subarrays", p2)).Cells
		if c[0].(bool) || c[2].(float64) != 0 {
			t.Errorf("power-of-2 size %d should need nothing: %+v", p2, c)
		}
	}
	for _, np2 := range []int{640, 768, 1280} {
		c := rowOf(t, r, fmt.Sprintf("%d-row subarrays", np2)).Cells
		if !c[0].(bool) || c[2].(float64) <= 0 {
			t.Errorf("size %d should form artificial groups with guards: %+v", np2, c)
		}
		// §6 band (with safe over-approximation): between ~0.39% and ~2%.
		if c[2].(float64) > 2.5 {
			t.Errorf("size %d reserves %.2f%%, far beyond the paper's band", np2, c[2])
		}
	}
	if !strings.Contains(RenderText(r), "artificial") {
		t.Error("render malformed")
	}
}

func TestGiBPages(t *testing.T) {
	r, err := gbPagesExp(context.Background(), nil, quickPerf())
	if err != nil {
		t.Fatal(err)
	}
	fraction := scalarOf(t, r, "single_set_fraction")
	if fraction < 1.0/3 {
		t.Errorf("single-set fraction %.2f below the paper's 1/3 floor", fraction)
	}
	if fraction > 0.99 {
		t.Error("mapping jump should split some 1 GiB pages")
	}
}

func TestTable3FlipsAcrossRanksAndBanks(t *testing.T) {
	// §7.1: flips occur across ranks and banks of each DIMM.
	r, err := quickTable3()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if ranks := row.Cells[3].(int); ranks < 2 {
			t.Errorf("DIMM %s: flips on %d ranks, want both", row.Label, ranks)
		}
		if banks := row.Cells[4].(int); banks < 2 {
			t.Errorf("DIMM %s: flips in %d banks, want several", row.Label, banks)
		}
	}
}
