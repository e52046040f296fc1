package experiments

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/attack"
)

// TestLifecycleAttackExperiment runs the quick sweep and pins its contract:
// all four campaign classes produce a row, every containment check passes,
// every campaign is non-vacuous (bursts landed, attacker flips happened),
// and the JSON render is byte-identical at parallelism 1 and 8 — the
// interleaving is hook-driven per cell, so the pool only fans across cells.
func TestLifecycleAttackExperiment(t *testing.T) {
	cfg := lifecycleAttackConfig(Flags{Quick: true})
	r, err := lifecycleAttackExp(context.Background(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(r.Rows), len(attack.Campaigns()); got != want {
		t.Fatalf("quick run produced %d rows, want %d (one per campaign)", got, want)
	}
	for _, c := range r.Checks {
		if !c.Pass {
			t.Errorf("check %s failed: %s", c.Name, c.Detail)
		}
	}
	for _, row := range r.Rows {
		// bursts (col 3) and attacker flips (col 4) must be non-zero or the
		// containment claim is vacuous for that campaign.
		if row.Cells[3].(int) == 0 || row.Cells[4].(int) == 0 {
			t.Errorf("campaign %s vacuous: %v", row.Label, row.Cells)
		}
	}

	j1, err := RenderJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := lifecycleAttackExp(context.Background(), NewPool(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := RenderJSON(r2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Error("lifecycle-attack is not deterministic across parallelism widths")
	}
}
