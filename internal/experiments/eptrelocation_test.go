package experiments

import (
	"bytes"
	"context"
	"testing"
)

// TestEPTRelocationExperiment runs the quick sweep — one cross-socket move
// under guard rows and under SecureEPT — and requires every relocation,
// reclaim, audit and hammering check to pass, non-vacuously.
func TestEPTRelocationExperiment(t *testing.T) {
	r, err := eptRelocExp(context.Background(), nil, eptRelocConfig(Flags{Quick: true}))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (guardrows, secure-ept)", len(r.Rows))
	}
	for _, c := range r.Checks {
		if !c.Pass {
			t.Errorf("check %q failed: %s", c.Name, c.Detail)
		}
	}
	// Cells: moves, relocated pages, reclaimed KiB, new-block flips, control
	// flips, integrity faults, intact.
	guard, secure := rowOf(t, r, "guardrows moves=1").Cells, rowOf(t, r, "secure-ept moves=1").Cells
	if guard[1].(int) < 3 || secure[1].(int) < 3 {
		t.Errorf("relocated pages %v / %v, want at least root + PDPT + PD each", guard[1], secure[1])
	}
	if guard[3].(int) != 0 || guard[4].(int) == 0 {
		t.Errorf("guard rows: %v flips in the relocated block, %v in control rows; want 0 and > 0", guard[3], guard[4])
	}
	if secure[5].(int) == 0 {
		t.Error("SecureEPT: hammering the relocated PD raised no integrity fault; phase vacuous")
	}
	if scalarOf(t, r, "relocated_pages") != float64(guard[1].(int)+secure[1].(int)) {
		t.Errorf("relocated_pages scalar %v is not the rows' sum", scalarOf(t, r, "relocated_pages"))
	}

	// memory_intact compares the guest's page against the payload stamped
	// before the moves, so the payload must differ from what a scrubbed or
	// lost page reads as — all zeros — for every cell seed, including those
	// that are 0 mod 256: -seed 0 and -seed 256 at cell 0, and the default
	// seed 23 at cell 167.
	for _, seed := range []int64{0, 256, RepSeed(23, 167), 23} {
		payload := eptRelocPayload(seed)
		if len(payload) == 0 || bytes.IndexByte(payload, 0) >= 0 {
			t.Errorf("seed %d (mod 256 = %d): payload has a zero byte; a scrubbed page could pass for it", seed, seed%256)
		}
	}
}
