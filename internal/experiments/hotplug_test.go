package experiments

import (
	"context"
	"testing"
)

// TestHotplugExperimentQuick runs the quick sweep (one feasible one-node
// grow on an idle socket) and requires every hot-add check to pass.
func TestHotplugExperimentQuick(t *testing.T) {
	r, err := hotplugExp(context.Background(), nil, hotplugConfig(Flags{Quick: true}))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(r.Rows))
	}
	for _, c := range r.Checks {
		if !c.Pass {
			t.Errorf("check %q failed: %s", c.Name, c.Detail)
		}
	}
	if v, err := r.Scalar("total_nodes_adopted"); err != nil || v != 1 {
		t.Errorf("total_nodes_adopted = %v (%v), want 1", v, err)
	}
	if v, err := r.Scalar("refusal_rate"); err != nil || v != 0 {
		t.Errorf("refusal_rate = %v (%v), want 0", v, err)
	}
}

// TestHotplugExperimentDefault runs the full sweep, which includes a
// contended cell whose growth must be refused and rolled back.
func TestHotplugExperimentDefault(t *testing.T) {
	r, err := hotplugExp(context.Background(), NewPool(2), hotplugConfig(Flags{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(r.Rows))
	}
	for _, c := range r.Checks {
		if !c.Pass {
			t.Errorf("check %q failed: %s", c.Name, c.Detail)
		}
	}
	// target=192MiB pressure=1 needs two nodes with only one free: refused.
	if v, err := r.Scalar("refusal_rate"); err != nil || v != 0.25 {
		t.Errorf("refusal_rate = %v (%v), want 0.25", v, err)
	}
}
