package experiments

import (
	"context"
	"strings"
	"testing"
)

// TestMigrationExperiment runs the quick sweep and pins its invariants:
// every check passes (byte identity, idle zero-downtime, bounded
// stop-and-copy, isolation audits) and two runs render identical bytes.
func TestMigrationExperiment(t *testing.T) {
	cfg := migrationConfig(Flags{Quick: true})
	r, err := migrationExp(context.Background(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("quick sweep produced %d rows, want 4 (2 modes x 2 rates)", len(r.Rows))
	}
	for _, c := range r.Checks {
		if !c.Pass {
			t.Errorf("check %s failed: %s", c.Name, c.Detail)
		}
	}
	r2, err := migrationExp(context.Background(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if RenderText(r) != RenderText(r2) {
		t.Error("migration experiment is not deterministic across runs")
	}
}

// TestDefragRecoveryStudy pins the live §8.1 counterpart: admission fails
// on the fragmented socket, recovers after exactly the planned moves, and
// the buddy introspection sees the vacated node.
func TestDefragRecoveryStudy(t *testing.T) {
	r, err := quickFragmentation()
	if err != nil {
		t.Fatal(err)
	}
	// Cells 2-4: admitted, moves, largest free order.
	before := rowOf(t, r, "defrag recovery: before rebalance").Cells
	after := rowOf(t, r, "defrag recovery: after rebalance").Cells
	if before[2].(bool) {
		t.Error("pending VM admitted before rebalancing — scenario broken")
	}
	if !after[2].(bool) {
		t.Error("pending VM still refused after rebalancing")
	}
	if moves := after[3].(int); moves < 1 || float64(moves) != scalarOf(t, r, "defrag_moves") {
		t.Errorf("recovery took %d moves (scalar %v), want >= 1", moves, scalarOf(t, r, "defrag_moves"))
	}
	if before[4].(int) != -1 {
		t.Errorf("fragmented socket reports largest free order %d, want -1", before[4])
	}
	if after[4].(int) <= before[4].(int) {
		t.Errorf("rebalancing did not raise the largest free order: %d -> %d", before[4], after[4])
	}
	const prefix = "post-rebalance free blocks on the home socket: "
	histogram, found := "", false
	for _, note := range r.Notes {
		if strings.HasPrefix(note, prefix) {
			histogram, found = strings.TrimPrefix(note, prefix), true
		}
	}
	if !found || histogram == "" || histogram == "none" {
		t.Errorf("post-rebalance histogram %q shows no free blocks", histogram)
	}
	if !passed(t, r, "defrag_recovers_admission") {
		t.Error("defrag_recovers_admission failed")
	}
}
