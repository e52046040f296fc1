package experiments

import (
	"context"
	"testing"
)

// TestBallooningExperiment runs the quick sweep and requires every
// reservation-release check to pass.
func TestBallooningExperiment(t *testing.T) {
	r, err := ballooningExp(context.Background(), nil, balloonConfig(Flags{Quick: true}))
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
	if v := scalarOf(t, r, "total_nodes_released"); v != 1 {
		t.Errorf("total_nodes_released = %v, want 1", v)
	}
}
