package experiments

import (
	"context"
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
	rec, err := DefragRecoveryStudy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec.BeforeAdmitted {
		t.Error("pending VM admitted before rebalancing — scenario broken")
	}
	if !rec.AfterAdmitted {
		t.Error("pending VM still refused after rebalancing")
	}
	if rec.Moves < 1 {
		t.Errorf("recovery took %d moves, want >= 1", rec.Moves)
	}
	if rec.OrderBefore != -1 {
		t.Errorf("fragmented socket reports largest free order %d, want -1", rec.OrderBefore)
	}
	if rec.OrderAfter <= rec.OrderBefore {
		t.Errorf("rebalancing did not raise the largest free order: %d -> %d", rec.OrderBefore, rec.OrderAfter)
	}
	if rec.Histogram == "" || rec.Histogram == "none" {
		t.Errorf("post-rebalance histogram %q shows no free blocks", rec.Histogram)
	}
}
