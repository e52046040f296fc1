package serve

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/geometry"
)

// TestConcurrentServeResize races the serving loop against balloon-backed
// grow/shrink cycles driven from outside it (run under -race via `make
// race-quick`). The loop's request generator keeps addressing the boot-time
// region, so translation failures on ballooned-out pages are expected and
// surface as request errors; crashes, data races, or a wedged loop are not.
func TestConcurrentServeResize(t *testing.T) {
	h := bootHost(t, core.ModeSiloz)
	createTenantVM(t, h, "t0", 0)
	createTenantVM(t, h, "t1", 1)

	cfg := twoTenantConfig(h)
	cfg.DurationNs = 20e6
	type outcome struct {
		rep *Report
		err error
	}
	done := make(chan outcome, 1)
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		rep, err := l.Run(context.Background())
		done <- outcome{rep, err}
	}()

	for i := 0; i < 8; i++ {
		target := uint64(32 * geometry.MiB)
		if i%2 == 1 {
			target = 64 * geometry.MiB
		}
		if _, err := h.ResizeVM("t0", target); err != nil {
			t.Errorf("resize %d -> %d MiB: %v", i, target>>20, err)
		}
	}

	out := <-done
	if out.err != nil {
		t.Fatalf("serving loop died: %v", out.err)
	}
	if out.rep.Requests == 0 {
		t.Fatal("no requests served while racing resizes")
	}
	// t1 was never resized: its requests must all have succeeded.
	if tr := out.rep.Tenants[1]; tr.Errors != 0 {
		t.Fatalf("undisturbed tenant saw %d errors", tr.Errors)
	}
}
