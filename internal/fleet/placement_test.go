package fleet

import (
	"errors"
	"testing"

	"repro/internal/geometry"
)

// synthViews builds a two-host fleet view from per-socket free-node sizes:
// sizes[host][socket] lists each unowned node's free bytes (MiB).
func synthViews(sizes [][][]uint64) []HostView {
	var out []HostView
	id := 0
	for hi, host := range sizes {
		hv := HostView{Host: hostName(hi)}
		for si, nodes := range host {
			sv := SocketView{Socket: si}
			for _, mib := range nodes {
				sv.Nodes = append(sv.Nodes, NodeView{
					ID:         id,
					FreeBytes:  mib * geometry.MiB,
					TotalBytes: mib * geometry.MiB,
				})
				id++
			}
			hv.Sockets = append(hv.Sockets, sv)
		}
		out = append(out, hv)
	}
	return out
}

func hostName(i int) string { return []string{"host-0", "host-1", "host-2"}[i] }

func TestPoliciesDiverge(t *testing.T) {
	// host-0 socket 0: two 64 MiB nodes (128 free, strands 0 for a 64 MiB
	// ask). host-1 socket 0: one 96 MiB node (96 free, strands 32).
	views := synthViews([][][]uint64{
		{{64, 64}},
		{{96}},
	})
	req := Request{Name: "x", GuestBytes: 64 * geometry.MiB}

	ff, err := FirstFit{}.Place(req, views)
	if err != nil || ff.Host != "host-0" {
		t.Fatalf("first-fit: %+v, %v (want host-0)", ff, err)
	}
	bf, err := BestFit{}.Place(req, views)
	if err != nil || bf.Host != "host-1" {
		t.Fatalf("best-fit: %+v, %v (want host-1, slack 32 < 64)", bf, err)
	}
	sa, err := SilozAware{}.Place(req, views)
	if err != nil || sa.Host != "host-0" {
		t.Fatalf("siloz-aware: %+v, %v (want host-0, strands 0 < 32)", sa, err)
	}
}

func TestSilozAwareConsolidates(t *testing.T) {
	// Both sockets strand 0 for a 64 MiB ask; the fuller one (less free)
	// wins so empty sockets stay whole for big VMs.
	views := synthViews([][][]uint64{
		{{64, 64, 64}, {64}},
	})
	p, err := SilozAware{}.Place(Request{Name: "x", GuestBytes: 64 * geometry.MiB}, views)
	if err != nil || p.Socket != 1 {
		t.Fatalf("siloz-aware: %+v, %v (want socket 1, the fuller one)", p, err)
	}
}

func TestPlacementRespectsExcludes(t *testing.T) {
	views := synthViews([][][]uint64{
		{{64}},
		{{64}},
		{{64}},
	})
	req := Request{Name: "x", GuestBytes: 64 * geometry.MiB,
		ExcludeHosts: map[string]bool{"host-0": true, "host-1": true}}
	for _, pol := range Policies() {
		p, err := pol.Place(req, views)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if p.Host != "host-2" {
			t.Fatalf("%s placed on %s; excluded hosts are inadmissible", pol.Name(), p.Host)
		}
	}
}

func TestPlacementOwnedNodesExcluded(t *testing.T) {
	views := synthViews([][][]uint64{{{64, 64}}})
	views[0].Sockets[0].Nodes[0].Owned = true
	views[0].Sockets[0].Nodes[0].FreeBytes = 64 * geometry.MiB // free but exclusive
	_, err := BestFit{}.Place(Request{Name: "x", GuestBytes: 128 * geometry.MiB}, views)
	if !errors.Is(err, ErrNoPlacement) {
		t.Fatalf("owned node counted as capacity: %v", err)
	}
}

func TestConsume(t *testing.T) {
	views := synthViews([][][]uint64{{{64, 64, 64}}})
	Consume(views, Placement{Host: "host-0", Socket: 0}, 96*geometry.MiB)
	sv := views[0].Sockets[0]
	if !sv.Nodes[0].Owned || !sv.Nodes[1].Owned || sv.Nodes[2].Owned {
		t.Fatalf("greedy consumption wrong: %+v", sv.Nodes)
	}
	if got := sv.FreeBytes(); got != 64*geometry.MiB {
		t.Fatalf("remaining capacity %d MiB, want 64", got/geometry.MiB)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, want := range []string{"first-fit", "best-fit", "siloz-aware"} {
		p, err := PolicyByName(want)
		if err != nil || p.Name() != want {
			t.Fatalf("PolicyByName(%q) = %v, %v", want, p, err)
		}
	}
	if _, err := PolicyByName("round-robin"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
