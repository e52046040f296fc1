package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/geometry"
)

func TestECCStudy(t *testing.T) {
	r, err := eccExp(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if scalarOf(t, r, "words_corrected") == 0 {
		t.Error("no corrected words; study vacuous")
	}
	if scalarOf(t, r, "words_uncorrectable") == 0 {
		t.Error("§2.5: dense flips should produce uncorrectable words (machine checks)")
	}
	if !passed(t, r, "correction_side_channel") {
		t.Error("§3: correction-event counts should depend on stored data (side channel)")
	}
	if scalarOf(t, r, "correction_events_secret_a") == scalarOf(t, r, "correction_events_secret_b") {
		t.Error("leak flag inconsistent with counts")
	}
	if !r.Passed() {
		t.Errorf("ecc checks failed: %+v", r.Checks)
	}
	if !strings.Contains(RenderText(r), "correction_side_channel") {
		t.Error("render malformed")
	}
}

// quickFragmentation runs the fragmentation experiment inline once for the
// waste-table test and the defrag-recovery test.
var quickFragmentation = sync.OnceValues(func() (*Result, error) {
	return fragmentationExp(context.Background(), nil)
})

func TestFragmentationStudy(t *testing.T) {
	r, err := quickFragmentation()
	if err != nil {
		t.Fatal(err)
	}
	// Cells: group GiB, waste %, then the defrag-recovery columns.
	var waste []Row
	for _, row := range r.Rows {
		if strings.HasPrefix(row.Label, "SNC-") {
			waste = append(waste, row)
		}
	}
	if len(waste) != 6 {
		t.Fatalf("rows = %d, want 6 (3 sizes x SNC-1/2)", len(waste))
	}
	group := func(label string) float64 { return rowOf(t, r, label).Cells[0].(float64) }
	wastePct := func(label string) float64 { return rowOf(t, r, label).Cells[1].(float64) }
	snc1, snc2 := "SNC-1, 1024-row subarrays", "SNC-2, 1024-row subarrays"
	// §8.1: SNC halves the group size and reduces waste.
	if group(snc2)*2 != group(snc1) {
		t.Errorf("SNC-2 group %.2f GiB, want half of %.2f", group(snc2), group(snc1))
	}
	if wastePct(snc2) >= wastePct(snc1) {
		t.Errorf("SNC-2 waste %.1f%% not below SNC-1 %.1f%%", wastePct(snc2), wastePct(snc1))
	}
	// Larger groups waste more.
	if wastePct("SNC-1, 2048-row subarrays") <= wastePct("SNC-1, 512-row subarrays") {
		t.Error("waste should grow with group size")
	}
	if !strings.Contains(RenderText(r), "SNC-2") {
		t.Error("render malformed")
	}
}

func TestDDR5Comparison(t *testing.T) {
	r, err := ddr5Exp(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(subarraySweepSizes) {
		t.Fatalf("rows = %d, want one per swept size", len(r.Rows))
	}
	for i, rows := range subarraySweepSizes {
		// Cells: DDR4 reserved %, DDR4 artificial, DDR5 reserved %, DDR5 artificial.
		c := r.Rows[i].Cells
		ddr4Reserved, ddr4Artificial := c[0].(float64), c[1].(bool)
		ddr5Reserved, ddr5Artificial := c[2].(float64), c[3].(bool)
		pow2 := rows&(rows-1) == 0
		if pow2 {
			if ddr4Artificial || ddr4Reserved != 0 {
				t.Errorf("size %d: DDR4 should need nothing for power-of-2", rows)
			}
		} else {
			if !ddr4Artificial || ddr4Reserved == 0 {
				t.Errorf("size %d: DDR4 should need artificial groups + guards", rows)
			}
		}
		// §8.2: DDR5 never needs artificial groups.
		if ddr5Artificial || ddr5Reserved != 0 {
			t.Errorf("size %d: DDR5 should form exact groups with no guards, got %+v", rows, c)
		}
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
	r, err := dramaExp(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Cells: idle ns, busy ns, signal %, leaks.
	shared, part := r.Rows[0].Cells, r.Rows[1].Cells
	// §8.4: subarray groups share banks, so the DRAMA timing channel
	// persists under Siloz's default mapping...
	if !shared[3].(bool) {
		t.Errorf("shared-bank mapping shows no timing signal (%.1f%%)", shared[2])
	}
	// ...while disjoint bank partitions close it.
	if part[3].(bool) {
		t.Errorf("bank-partitioned mapping leaks (%.1f%%)", part[2])
	}
}

func TestActivationRates(t *testing.T) {
	// §1 (citing [98]): malicious AND commodity access streams can exceed
	// modern Rowhammer thresholds, so thresholds cannot be outrun —
	// isolation is required. Rates are DRAM-visible activations (the
	// coherence-induced and cache-evading traffic [98] measures).
	r, err := actRatesExp(context.Background(), nil, actRatesConfig(Flags{Quick: true}))
	if err != nil {
		t.Fatal(err)
	}
	// Cells: peak ACTs, the exceeded DIMMs comma-joined ("-" for none).
	exceeds := func(workload string) []string {
		if ex := rowOf(t, r, workload).Cells[1].(string); ex != "-" {
			return strings.Split(ex, ",")
		}
		return nil
	}
	if got := exceeds("hammer-pair"); len(got) != 6 {
		t.Errorf("hammer-pair exceeds only %v", got)
	}
	if got := exceeds("redis-a"); len(got) == 0 {
		t.Errorf("hot-key commodity workload exceeds no thresholds (peak %d)", rowOf(t, r, "redis-a").Cells[0])
	}
	if got := exceeds("mlc-stream"); len(got) != 0 {
		t.Errorf("sequential stream should not exceed thresholds: %+v", rowOf(t, r, "mlc-stream"))
	}
}

func TestZebRAMComparison(t *testing.T) {
	r, err := zebramExp(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cells: overhead %, cross-domain flips, safe.
	safe := func(scheme string) bool { return rowOf(t, r, scheme).Cells[2].(bool) }
	// §3's executable argument:
	if safe("no guards (baseline placement)") {
		t.Error("no-guard placement should leak")
	}
	// Original ZebRAM's 50% is insufficient against blast radius 2.
	if safe("ZebRAM, 1 guard/row (50%)") {
		t.Error("1 guard/row should leak at blast radius 2 (Half-Double)")
	}
	// 2 guards/row stops distance-2 disturbance; 4 is the paper's safe
	// figure for modern parts.
	if !safe("ZebRAM, 4 guards/row (80%)") {
		t.Error("4 guards/row should be safe")
	}
	// Siloz: safe at ~zero overhead.
	if !safe("Siloz subarray groups (~0%)") {
		t.Error("subarray groups leaked")
	}
	if rowOf(t, r, "Siloz subarray groups (~0%)").Cells[0].(float64) > 1 {
		t.Error("Siloz overhead should be ~0")
	}
	if !r.Passed() {
		t.Errorf("zebram checks failed: %+v", r.Checks)
	}
	if !strings.Contains(RenderText(r), "ZebRAM") {
		t.Error("render malformed")
	}
}
