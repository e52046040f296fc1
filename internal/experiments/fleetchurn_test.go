package experiments

import (
	"bytes"
	"context"
	"testing"
)

// TestFleetChurnExperiment runs the quick trace and pins its invariants:
// every check passes (round-by-round audits, complete trace accounting,
// typed rejections, capacity conservation) and the run is deterministic —
// identical JSON bytes at parallelism 1 and 4, per the experiment's
// contract that the pool only fans across policies.
func TestFleetChurnExperiment(t *testing.T) {
	cfg := fleetConfig(Flags{Quick: true})
	cfg.Hosts = 2 // every check holds on two hosts; the -quick third is boot time only
	r, err := fleetChurnExp(context.Background(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(r.Rows), len(cfg.Policies); got != want {
		t.Fatalf("quick run produced %d rows, want %d (one per policy)", got, want)
	}
	for _, c := range r.Checks {
		if !c.Pass {
			t.Errorf("check %s failed: %s", c.Name, c.Detail)
		}
	}
	// The quick trace must exercise real churn, not a trivially empty fleet.
	for _, row := range r.Rows {
		if row.Cells[1].(int) == 0 {
			t.Errorf("policy %s admitted no VMs", row.Label)
		}
	}

	j1, err := RenderJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := fleetChurnExp(context.Background(), NewPool(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := RenderJSON(r2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Error("fleet-churn is not deterministic across parallelism widths")
	}
}

// TestDefaultFleetConfigScale pins the acceptance floor: at least 1000
// arrivals across at least 8 hosts.
func TestDefaultFleetConfigScale(t *testing.T) {
	fc := fleetConfig(Flags{})
	if fc.Hosts < 8 {
		t.Errorf("default fleet has %d hosts, want >= 8", fc.Hosts)
	}
	if n := fc.Rounds * fc.ArrivalsPerRound; n < 1000 {
		t.Errorf("default trace has %d arrivals, want >= 1000", n)
	}
}
