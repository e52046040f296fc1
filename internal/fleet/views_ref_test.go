package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geometry"
)

// refViews is the retired Views, verbatim but for its name: a fresh
// Occupancy slice per host and fresh socket and node slices per host and
// socket. It is the oracle the in-place Views must equal.
func refViews(c *Cluster) ([]HostView, error) {
	out := make([]HostView, 0, len(c.hosts))
	for _, h := range c.hosts {
		occ, err := h.Planner().Occupancy()
		if err != nil {
			return nil, fmt.Errorf("fleet: occupancy of %q: %w", h.Name(), err)
		}
		// occ is in node-ID order, so each socket's nodes come out in ID
		// order too; a socket with no guest node gets no view.
		sockets := h.Hypervisor().Memory().Geometry().Sockets
		hv := HostView{Host: h.Name(), Sockets: make([]SocketView, 0, sockets)}
		for s := range sockets {
			n := 0
			for _, o := range occ {
				if o.Node.Socket == s {
					n++
				}
			}
			if n == 0 {
				continue
			}
			sv := SocketView{Socket: s, Nodes: make([]NodeView, 0, n)}
			for _, o := range occ {
				if o.Node.Socket == s {
					sv.Nodes = append(sv.Nodes, NodeView{
						ID:         o.Node.ID,
						Owned:      o.Owner != "",
						FreeBytes:  uint64(o.FreePages2M) * geometry.PageSize2M,
						TotalBytes: o.TotalBytes,
					})
				}
			}
			hv.Sockets = append(hv.Sockets, sv)
		}
		out = append(out, hv)
	}
	return out, nil
}

// refMetrics is the retired Metrics, verbatim but for its name: Occupancy
// per host, and the VM count from the hypervisor's sorted VM list.
func refMetrics(c *Cluster) (*FleetMetrics, error) {
	out := &FleetMetrics{}
	for _, h := range c.hosts {
		occ, err := h.Planner().Occupancy()
		if err != nil {
			return nil, err
		}
		hm := HostMetrics{Host: h.Name(), VMs: len(h.Hypervisor().VMs())}
		for _, o := range occ {
			hm.GuestNodes++
			hm.TotalGuestBytes += o.TotalBytes
			if o.Owner != "" {
				hm.OwnedNodes++
				hm.OwnedBytes += o.TotalBytes
				// Byte-accurate free space, not huge-page capacity:
				// fragmented tails are stranded too.
				hm.StrandedBytes += o.FreeBytes
			} else {
				hm.FreeBytes += uint64(o.FreePages2M) * geometry.PageSize2M
			}
		}
		out.Hosts = append(out.Hosts, hm)
		out.GuestNodes += hm.GuestNodes
		out.OwnedNodes += hm.OwnedNodes
		out.TotalGuestBytes += hm.TotalGuestBytes
		out.OwnedBytes += hm.OwnedBytes
		out.StrandedBytes += hm.StrandedBytes
		out.FreeBytes += hm.FreeBytes
		out.VMs += hm.VMs
	}
	return out, nil
}

// requireReadsMatchRetired compares Views and Metrics with the retired
// Occupancy-based reads, and checks that every slice Views hands out is
// clipped to its own elements, so a caller appending to one cannot write
// into its neighbour.
func requireReadsMatchRetired(t *testing.T, c *Cluster, step string) {
	t.Helper()
	got, err := c.Views()
	if err != nil {
		t.Fatalf("%s: Views: %v", step, err)
	}
	want, err := refViews(c)
	if err != nil {
		t.Fatalf("%s: retired Views: %v", step, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Views\n got %+v\nwant %+v", step, got, want)
	}
	for _, hv := range got {
		if cap(hv.Sockets) != len(hv.Sockets) {
			t.Fatalf("%s: host %s: socket views len %d cap %d", step, hv.Host, len(hv.Sockets), cap(hv.Sockets))
		}
		for _, sv := range hv.Sockets {
			if cap(sv.Nodes) != len(sv.Nodes) {
				t.Fatalf("%s: host %s socket %d: node views len %d cap %d", step, hv.Host, sv.Socket, len(sv.Nodes), cap(sv.Nodes))
			}
		}
	}
	gotM, err := c.Metrics()
	if err != nil {
		t.Fatalf("%s: Metrics: %v", step, err)
	}
	wantM, err := refMetrics(c)
	if err != nil {
		t.Fatalf("%s: retired Metrics: %v", step, err)
	}
	if !reflect.DeepEqual(gotM, wantM) {
		t.Fatalf("%s: Metrics\n got %+v\nwant %+v", step, *gotM, *wantM)
	}
}

// TestReadsMatchRetiredOccupancy runs a seeded random sequence of the
// cluster's ownership- and capacity-changing ops — admit, depart, resize
// (shrinks and grows, some refused), cross-host moves and scheduler rounds —
// on three hosts, and after every op requires Views and Metrics to equal
// the retired reads built from fresh Occupancy slices.
func TestReadsMatchRetiredOccupancy(t *testing.T) {
	ctx := context.Background()
	c := testCluster(t, 3, SilozAware{})
	sched := NewScheduler(c, SchedulerConfig{Seed: 7, DirtyPages: 1})
	rng := rand.New(rand.NewSource(46))
	sizes := []uint64{64 * geometry.MiB, 96 * geometry.MiB, 128 * geometry.MiB, 192 * geometry.MiB}
	requireReadsMatchRetired(t, c, "boot")
	kinds := map[string]int{}
	for i := 0; i < 120; i++ {
		var kind string
		var err error
		names := c.VMs()
		pick := func() string { return names[rng.Intn(len(names))] }
		switch r := rng.Intn(10); {
		case r < 4 || len(names) == 0:
			kind = "admit"
			_, err = c.Admit(ctx, testProc(), core.VMSpec{
				Name: fmt.Sprintf("vm-%03d", i), MemoryBytes: sizes[rng.Intn(len(sizes))],
				MinMemoryBytes: 64 * geometry.MiB, VCPUs: 1,
			})
			if errors.Is(err, ErrNoPlacement) {
				err = nil // a full fleet refuses; the reads must still agree
			}
		case r < 6:
			kind = "depart"
			err = done(c.SubmitDepart(pick()))
		case r < 8:
			kind = "resize"
			err = done(c.SubmitResize(pick(), sizes[rng.Intn(len(sizes))]))
			if errors.Is(err, core.ErrCapacityExhausted) {
				err = nil // a refused grow changes nothing
			}
		case r < 9:
			kind = "move"
			name := pick()
			src, _ := c.HostOf(name)
			dst := fmt.Sprintf("host-%d", rng.Intn(3))
			if dst == src {
				continue
			}
			_, err = c.MoveVM(ctx, name, dst, rng.Intn(2), 1, int64(i))
			if errors.Is(err, core.ErrCapacityExhausted) {
				err = nil // no room on the destination; the move unwinds
			}
		default:
			kind = "round"
			_, err = sched.Round(ctx)
		}
		step := fmt.Sprintf("op %d (%s)", i, kind)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		kinds[kind]++
		requireReadsMatchRetired(t, c, step)
		if err := c.AuditIsolation(); err != nil {
			t.Fatalf("%s: audit: %v", step, err)
		}
	}
	for _, k := range []string{"admit", "depart", "resize", "move", "round"} {
		if kinds[k] == 0 {
			t.Errorf("the sequence ran no %s", k)
		}
	}
}
