package experiments

import (
	"context"
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

func TestEPTProtectionQuick(t *testing.T) {
	cfg := quickSecurity()
	res, err := EPTProtection(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProtectedFlips != 0 {
		t.Errorf("protected rows flipped %d times", res.ProtectedFlips)
	}
	if res.UnprotectedFlips == 0 {
		t.Error("unprotected control rows did not flip; experiment vacuous")
	}
	if !res.TranslationsIntact {
		t.Error("EPT translations corrupted despite guard rows")
	}
	r, err := eptExp(context.Background(), nil, cfg)
	if err != nil {
		t.Fatal(err)
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

func TestFig4Quick(t *testing.T) {
	fig, err := Fig4ExecutionTime(context.Background(), nil, quickPerf())
	if err != nil {
		t.Fatal(err)
	}
	// redis a-f, terasort, spec, parsec = 9 bars.
	if len(fig.Bars) != 9 {
		t.Fatalf("bars = %d, want 9", len(fig.Bars))
	}
	if !fig.WithinHalfPercent() {
		t.Errorf("geomean overhead %.2f%% outside ±0.5%% (paper's headline claim)", fig.GeomeanPct)
	}
	for _, b := range fig.Bars {
		if b.OverheadPct > 3 || b.OverheadPct < -3 {
			t.Errorf("bar %s overhead %.2f%% implausibly large", b.Name, b.OverheadPct)
		}
	}
	if !strings.Contains(RenderText(figureResult("fig4", fig)), "geomean") {
		t.Error("render malformed")
	}
}

func TestFig5Quick(t *testing.T) {
	fig, err := Fig5Throughput(context.Background(), nil, quickPerf())
	if err != nil {
		t.Fatal(err)
	}
	// memcached, mysql, 5 MLC modes = 7 bars.
	if len(fig.Bars) != 7 {
		t.Fatalf("bars = %d, want 7", len(fig.Bars))
	}
	if !fig.WithinHalfPercent() {
		t.Errorf("geomean overhead %.2f%% outside ±0.5%%", fig.GeomeanPct)
	}
}

func TestSizeSensitivityQuick(t *testing.T) {
	cfg := quickPerf()
	res, err := Fig6And7SizeSensitivity(context.Background(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("sweep produced %d figures, want 4 (two metrics x two sizes)", len(res))
	}
	for _, fig := range res {
		if len(fig.Bars) == 0 {
			t.Fatalf("figure %q empty", fig.Title)
		}
		if !fig.WithinHalfPercent() {
			t.Errorf("%s geomean %.2f%% outside ±0.5%% (§7.4: no trend with subarray size)", fig.Title, fig.GeomeanPct)
		}
	}
}

func TestBankLevelParallelism(t *testing.T) {
	res, err := BankLevelParallelism(context.Background(), geometry.Default(), 40000)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpeedupPct < 18 {
		t.Errorf("BLP benefit %.1f%%, paper cites >18%%", res.SpeedupPct)
	}
}

func TestOverheadComparison(t *testing.T) {
	rows := OverheadComparison(geometry.Default())
	if len(rows) < 5 {
		t.Fatal("too few schemes")
	}
	var siloz, zebram80 float64
	for _, r := range rows {
		switch r.Scheme {
		case "Siloz EPT block (b=32)":
			siloz = r.ReservedPct
		case "ZebRAM (4 guards/row, modern)":
			zebram80 = r.ReservedPct
		}
	}
	// §5.4: ~0.024% of each bank.
	if siloz < 0.02 || siloz > 0.03 {
		t.Errorf("Siloz EPT reservation %.4f%%, want ~0.024%%", siloz)
	}
	if zebram80 != 80 {
		t.Errorf("ZebRAM modern = %v, want 80", zebram80)
	}
	r, err := overheadExp(context.Background(), nil, quickPerf())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderText(r), "ZebRAM") {
		t.Error("render malformed")
	}
}

func TestSoftRefreshComparison(t *testing.T) {
	task, tick := SoftRefreshComparison()
	if task.MissedDeadlines == 0 || tick.MissedDeadlines == 0 {
		t.Error("§8.3: both models must miss deadlines")
	}
	if task.MissRate() <= tick.MissRate() {
		t.Error("task model should miss more than tick model")
	}
}

func TestRemapHandling(t *testing.T) {
	rows, err := RemapHandling(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byRows := make(map[int]RemapRow)
	for _, r := range rows {
		byRows[r.SubarrayRows] = r
	}
	for _, p2 := range []int{512, 1024, 2048} {
		r := byRows[p2]
		if r.Artificial || r.ReservedPct != 0 {
			t.Errorf("power-of-2 size %d should need nothing: %+v", p2, r)
		}
	}
	for _, np2 := range []int{640, 768, 1280} {
		r := byRows[np2]
		if !r.Artificial || r.ReservedPct <= 0 {
			t.Errorf("size %d should form artificial groups with guards: %+v", np2, r)
		}
		// §6 band (with safe over-approximation): between ~0.39% and ~2%.
		if r.ReservedPct > 2.5 {
			t.Errorf("size %d reserves %.2f%%, far beyond the paper's band", np2, r.ReservedPct)
		}
	}
	rr, err := remapsExp(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderText(rr), "artificial") {
		t.Error("render malformed")
	}
}

func TestGiBPages(t *testing.T) {
	res, err := GiBPages(context.Background(), geometry.Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.SingleSetFraction < 1.0/3 {
		t.Errorf("single-set fraction %.2f below the paper's 1/3 floor", res.SingleSetFraction)
	}
	if res.SingleSetFraction > 0.99 {
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
