package fleet

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/geometry"
)

// TestAdmitRejectionIsTyped checks the ErrNoPlacement contract end to end:
// a full cluster rejects with an error the caller can classify with
// errors.Is, per the core.ErrResizeBusy sentinel convention.
func TestAdmitRejectionIsTyped(t *testing.T) {
	ctx := context.Background()
	c := testCluster(t, 1, FirstFit{})

	// 14 guest nodes of 64 MiB; a 448 MiB VM takes one full socket.
	for i := 0; i < 2; i++ {
		admit(t, c, fmt.Sprintf("big-%d", i), 448*geometry.MiB)
	}
	_, err := c.Admit(ctx, testProc(), core.VMSpec{Name: "overflow", MemoryBytes: 64 * geometry.MiB})
	if err == nil {
		t.Fatal("admission into a full cluster succeeded")
	}
	if !errors.Is(err, ErrNoPlacement) {
		t.Fatalf("rejection not typed ErrNoPlacement: %v", err)
	}
	if errors.Is(err, ErrClosed) {
		t.Fatalf("rejection matches the wrong sentinel: %v", err)
	}
	if s := c.Stats(); s.Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", s.Rejected)
	}
}

func TestUnknownSentinels(t *testing.T) {
	c := testCluster(t, 1, FirstFit{})
	if _, err := c.SubmitDepart("ghost"); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("depart ghost: %v, want ErrUnknownVM", err)
	}
	if _, err := c.SubmitResize("ghost", 64*geometry.MiB); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("resize ghost: %v, want ErrUnknownVM", err)
	}
	if _, err := c.HostOf("ghost"); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("HostOf ghost: %v, want ErrUnknownVM", err)
	}
	if _, err := c.Host("mars"); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("Host mars: %v, want ErrUnknownHost", err)
	}
	if _, err := c.MoveVM(context.Background(), "ghost", "host-0", 0, 0, 0); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("move ghost: %v, want ErrUnknownVM", err)
	}
}

func TestClosedIsTyped(t *testing.T) {
	c, err := New(Config{Hosts: 1, Core: labCoreConfig()})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Admit(context.Background(), testProc(),
		core.VMSpec{Name: "x", MemoryBytes: 64 * geometry.MiB}); !errors.Is(err, ErrClosed) {
		t.Fatalf("admit after close: %v, want ErrClosed", err)
	}
	if _, err := c.Hosts()[0].Submit(func() error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}
