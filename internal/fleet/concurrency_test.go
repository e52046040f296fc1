package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/geometry"
)

// TestConcurrentFleetChurn hammers the control plane from many goroutines:
// simultaneous admissions, departures, resizes, and a rebalance round, with the
// fleet-wide isolation audit after every round. Each goroutine runs its ops
// under the host's lock, so what keeps the invariants is core's lifecycle
// latch, each host's lock and the cross-host moves' bookkeeping — not the
// order the test issues them in. Wired into `make race-quick`.
func TestConcurrentFleetChurn(t *testing.T) {
	ctx := context.Background()
	c := testCluster(t, 3, BestFit{})
	sched := NewScheduler(c, SchedulerConfig{Seed: 17})

	const rounds = 4
	const perRound = 9
	var prev []string
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		var mu sync.Mutex
		var admitted []string
		errc := make(chan error, perRound+len(prev))

		// Concurrent admissions.
		for i := 0; i < perRound; i++ {
			name := fmt.Sprintf("c%d-%d", round, i)
			size := uint64(64+64*(i%3)) * geometry.MiB
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := c.Admit(ctx, testProc(), vmSpec(name, size))
				if err != nil {
					if errors.Is(err, ErrNoPlacement) {
						return // legitimate under contention
					}
					errc <- fmt.Errorf("admit %s: %w", name, err)
					return
				}
				mu.Lock()
				admitted = append(admitted, name)
				mu.Unlock()
			}()
		}
		// Concurrent departures of the previous round, racing the
		// admissions above.
		for _, name := range prev {
			wg.Add(1)
			go func() {
				defer wg.Done()
				op, err := c.SubmitDepart(name)
				if err != nil {
					errc <- fmt.Errorf("depart %s: %w", name, err)
					return
				}
				if err := op.Wait(ctx); err != nil {
					errc <- fmt.Errorf("depart %s: %w", name, err)
				}
			}()
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}

		// Concurrent resizes of this round's survivors.
		var rwg sync.WaitGroup
		rerrc := make(chan error, len(admitted))
		for i, name := range admitted {
			if i%2 != 0 {
				continue
			}
			wg.Add(1)
			rwg.Add(1)
			go func() {
				defer wg.Done()
				defer rwg.Done()
				op, err := c.SubmitResize(name, 64*geometry.MiB)
				if err != nil {
					rerrc <- fmt.Errorf("resize %s: %w", name, err)
					return
				}
				if err := op.Wait(ctx); err != nil {
					rerrc <- fmt.Errorf("resize %s: %w", name, err)
				}
			}()
		}
		rwg.Wait()
		close(rerrc)
		for err := range rerrc {
			t.Fatal(err)
		}

		// A scheduler round in the middle of the churn.
		if round == 1 {
			if _, err := sched.Round(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.AuditIsolation(); err != nil {
			t.Fatalf("round %d audit: %v", round, err)
		}
		prev = admitted
	}

	// Drain the survivors and verify the fleet comes back empty.
	for _, name := range prev {
		op, err := c.SubmitDepart(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := op.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AuditIsolation(); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.OwnedNodes != 0 || m.VMs != 0 {
		t.Fatalf("fleet not empty after churn: %d owned nodes, %d VMs", m.OwnedNodes, m.VMs)
	}
}
