package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/geometry"
)

func TestECCStudy(t *testing.T) {
	res, err := ECCStudy()
	if err != nil {
		t.Fatal(err)
	}
	if res.WordsCorrected == 0 {
		t.Error("no corrected words; study vacuous")
	}
	if res.WordsUncorrectable == 0 {
		t.Error("§2.5: dense flips should produce uncorrectable words (machine checks)")
	}
	if !res.Leak {
		t.Error("§3: correction-event counts should depend on stored data (side channel)")
	}
	if res.CorrectionEventsA == res.CorrectionEventsB {
		t.Error("leak flag inconsistent with counts")
	}
	r, err := eccExp(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed() {
		t.Errorf("ecc checks failed: %+v", r.Checks)
	}
	if !strings.Contains(RenderText(r), "correction_side_channel") {
		t.Error("render malformed")
	}
}

func TestFragmentationStudy(t *testing.T) {
	rows, err := FragmentationStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 (3 sizes x SNC-1/2)", len(rows))
	}
	byConfig := map[string]FragmentationRow{}
	for _, r := range rows {
		byConfig[r.Config] = r
	}
	snc1 := byConfig["SNC-1, 1024-row subarrays"]
	snc2 := byConfig["SNC-2, 1024-row subarrays"]
	// §8.1: SNC halves the group size and reduces waste.
	if snc2.GroupGiB*2 != snc1.GroupGiB {
		t.Errorf("SNC-2 group %.2f GiB, want half of %.2f", snc2.GroupGiB, snc1.GroupGiB)
	}
	if snc2.WastePct >= snc1.WastePct {
		t.Errorf("SNC-2 waste %.1f%% not below SNC-1 %.1f%%", snc2.WastePct, snc1.WastePct)
	}
	// Larger groups waste more.
	if byConfig["SNC-1, 2048-row subarrays"].WastePct <= byConfig["SNC-1, 512-row subarrays"].WastePct {
		t.Error("waste should grow with group size")
	}
	r, err := fragmentationExp(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderText(r), "SNC-2") {
		t.Error("render malformed")
	}
}

func TestDDR5Comparison(t *testing.T) {
	rows, err := DDR5Comparison()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		pow2 := r.SubarrayRows&(r.SubarrayRows-1) == 0
		if pow2 {
			if r.DDR4Artifical || r.DDR4Reserved != 0 {
				t.Errorf("size %d: DDR4 should need nothing for power-of-2", r.SubarrayRows)
			}
		} else {
			if !r.DDR4Artifical || r.DDR4Reserved == 0 {
				t.Errorf("size %d: DDR4 should need artificial groups + guards", r.SubarrayRows)
			}
		}
		// §8.2: DDR5 never needs artificial groups.
		if r.DDR5Artifical || r.DDR5Reserved != 0 {
			t.Errorf("size %d: DDR5 should form exact groups with no guards, got %+v", r.SubarrayRows, r)
		}
	}
	r, err := ddr5Exp(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed() {
		t.Errorf("ddr5 checks failed: %+v", r.Checks)
	}
	if !strings.Contains(RenderText(r), "DDR5") {
		t.Error("render malformed")
	}
}

func TestSNCGeometry(t *testing.T) {
	g, err := geometry.Default().WithSNC(2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Sockets != 4 || g.DIMMsPerSocket != 3 || g.CoresPerSocket != 20 {
		t.Errorf("SNC-2 geometry wrong: %+v", g)
	}
	// Group size halves (§8.1).
	if got, want := g.SubarrayGroupBytes(), geometry.Default().SubarrayGroupBytes()/2; got != want {
		t.Errorf("SNC-2 group bytes = %d, want %d", got, want)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := geometry.Default().WithSNC(0); err == nil {
		t.Error("SNC-0 accepted")
	}
	if _, err := geometry.Default().WithSNC(4); err == nil {
		t.Error("SNC-4 with 6 DIMMs/socket accepted")
	}
}

func TestDRAMAStudy(t *testing.T) {
	rows, err := DRAMAStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	shared, part := rows[0], rows[1]
	// §8.4: subarray groups share banks, so the DRAMA timing channel
	// persists under Siloz's default mapping...
	if !shared.Leaks() {
		t.Errorf("shared-bank mapping shows no timing signal (%.1f%%)", shared.SignalPct)
	}
	// ...while disjoint bank partitions close it.
	if part.Leaks() {
		t.Errorf("bank-partitioned mapping leaks (%.1f%%)", part.SignalPct)
	}
}

func TestActivationRates(t *testing.T) {
	// §1 (citing [98]): malicious AND commodity access streams can exceed
	// modern Rowhammer thresholds, so thresholds cannot be outrun —
	// isolation is required. Rates are DRAM-visible activations (the
	// coherence-induced and cache-evading traffic [98] measures).
	cfg := actRatesConfig(Flags{Quick: true})
	rows, err := ActivationRates(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ActRateRow{}
	for _, r := range rows {
		byName[r.Workload] = r
	}
	if got := byName["hammer-pair"]; len(got.Exceeds) != 6 {
		t.Errorf("hammer-pair exceeds only %v", got.Exceeds)
	}
	if got := byName["redis-a"]; len(got.Exceeds) == 0 {
		t.Errorf("hot-key commodity workload exceeds no thresholds (peak %d)", got.PeakACTs)
	}
	if got := byName["mlc-stream"]; len(got.Exceeds) != 0 {
		t.Errorf("sequential stream should not exceed thresholds: %+v", got)
	}
}

func TestZebRAMComparison(t *testing.T) {
	rows, err := ZebRAMComparison()
	if err != nil {
		t.Fatal(err)
	}
	byScheme := map[string]ZebRAMRow{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
	}
	// §3's executable argument:
	if byScheme["no guards (baseline placement)"].Safe {
		t.Error("no-guard placement should leak")
	}
	// Original ZebRAM's 50% is insufficient against blast radius 2.
	if byScheme["ZebRAM, 1 guard/row (50%)"].Safe {
		t.Error("1 guard/row should leak at blast radius 2 (Half-Double)")
	}
	// 2 guards/row stops distance-2 disturbance; 4 is the paper's safe
	// figure for modern parts.
	if !byScheme["ZebRAM, 4 guards/row (80%)"].Safe {
		t.Error("4 guards/row should be safe")
	}
	// Siloz: safe at ~zero overhead.
	siloz := byScheme["Siloz subarray groups (~0%)"]
	if !siloz.Safe {
		t.Error("subarray groups leaked")
	}
	if siloz.OverheadPct > 1 {
		t.Error("Siloz overhead should be ~0")
	}
	r, err := zebramExp(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed() {
		t.Errorf("zebram checks failed: %+v", r.Checks)
	}
	if !strings.Contains(RenderText(r), "ZebRAM") {
		t.Error("render malformed")
	}
}
