package fleet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/geometry"
	"repro/internal/subarray"
)

// layoutGroups deep-copies every group of a layout: socket, index, rows and
// ranges.
func layoutGroups(l *subarray.Layout) []subarray.Group {
	var out []subarray.Group
	for s := 0; s < l.Geometry().Sockets; s++ {
		for i := 0; i < l.GroupsPerSocket(); i++ {
			g := *l.Group(s, i)
			g.Ranges = slices.Clone(g.Ranges)
			out = append(out, g)
		}
	}
	return out
}

// TestConcurrentFleetChurn hammers the control plane from many goroutines:
// simultaneous admissions, departures, resizes, and a rebalance round, with the
// fleet-wide isolation audit after every round. Each goroutine runs its ops
// under the host's lock, so what keeps the invariants is core's lifecycle
// latch, each host's lock and the cross-host moves' bookkeeping — not the
// order the test issues them in. Every host shares host 0's box — its
// layout, mapper and row arena — and neither the boots nor the churn may
// write that layout. Wired into `make race-quick`.
func TestConcurrentFleetChurn(t *testing.T) {
	ctx := context.Background()
	c := testCluster(t, 3, BestFit{})
	sched := NewScheduler(c, SchedulerConfig{Seed: 17})
	box := c.Hosts()[0].Hypervisor()
	for _, h := range c.Hosts()[1:] {
		hv := h.Hypervisor()
		if hv.Layout() != box.Layout() || hv.Memory().Mapper() != box.Memory().Mapper() ||
			hv.Memory().RowStore() != box.Memory().RowStore() {
			t.Fatalf("%s does not share host 0's layout, mapper and row arena", h.Name())
		}
	}
	// The layout as computed: the hosts' boots must not have written it,
	// and neither may the churn.
	fresh, err := subarray.NewLayout(labGeometry(), box.Memory().Mapper(), labProfile().Transforms)
	if err != nil {
		t.Fatal(err)
	}
	booted := layoutGroups(fresh)
	if !reflect.DeepEqual(layoutGroups(box.Layout()), booted) {
		t.Fatal("booting the fleet wrote the box's shared subarray layout")
	}

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
	if !reflect.DeepEqual(layoutGroups(box.Layout()), booted) {
		t.Fatal("the churn wrote the box's shared subarray layout")
	}
}
