package serve

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
)

// TestReqHeapPopsInTotalOrder: entries drawn from tiny key ranges, so ties
// occur on every prefix of (ready, tenant, client, seq), must pop in exactly
// the order sorting by the same comparator gives — with pushes and pops
// interleaved the way the serving loop interleaves them.
func TestReqHeapPopsInTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		n := 1 + rng.Intn(200)
		entries := make([]reqEntry, n)
		for i := range entries {
			entries[i] = reqEntry{
				ready:  float64(rng.Intn(4)),
				tenant: rng.Intn(3),
				client: rng.Intn(3),
				seq:    int64(rng.Intn(4)),
			}
		}
		var h reqHeap
		var got, pending []reqEntry
		for _, e := range entries {
			h.push(e)
			pending = append(pending, e)
			if rng.Intn(3) == 0 { // pop mid-stream: must be the least pending entry
				sort.Slice(pending, func(i, j int) bool { return pending[i].less(pending[j]) })
				if top := h.pop(); top != pending[0] {
					t.Fatalf("round %d: mid-stream pop = %+v, want %+v", round, top, pending[0])
				}
				pending = pending[1:]
			}
		}
		for len(h) > 0 {
			got = append(got, h.pop())
		}
		sort.Slice(pending, func(i, j int) bool { return pending[i].less(pending[j]) })
		if len(got) != len(pending) {
			t.Fatalf("round %d: drained %d entries, want %d", round, len(got), len(pending))
		}
		for i := range got {
			if got[i] != pending[i] {
				t.Fatalf("round %d: pop %d = %+v, want %+v", round, i, got[i], pending[i])
			}
		}
	}
}

// TestServeLoopSteadyStateAllocs gates the serving loop's zero-allocation
// steady state: two runs that differ only in DurationNs pay the same set-up
// (stations, LLCs, histograms, TLB fills), so the extra mallocs of the longer
// run divided by its extra requests is the per-request allocation rate.
func TestServeLoopSteadyStateAllocs(t *testing.T) {
	h := bootHost(t, core.ModeSiloz)
	createTenantVM(t, h, "t0", 0)
	createTenantVM(t, h, "t1", 1)
	measure := func(durationNs float64) (mallocs uint64, requests int64) {
		cfg := twoTenantConfig(h)
		cfg.DurationNs = durationNs
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := l.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, rep.Requests
	}
	measure(1e6) // warm the VMs' TLBs and the runtime's own lazy state
	shortMallocs, shortReqs := measure(2e6)
	longMallocs, longReqs := measure(12e6)
	extraReqs := longReqs - shortReqs
	if extraReqs < 1000 {
		t.Fatalf("longer run served only %d extra requests", extraReqs)
	}
	perReq := (float64(longMallocs) - float64(shortMallocs)) / float64(extraReqs)
	t.Logf("%d vs %d mallocs over %d vs %d requests: %.5f per extra request",
		shortMallocs, longMallocs, shortReqs, longReqs, perReq)
	if perReq >= 0.01 {
		t.Errorf("steady state allocates %.4f times per request, want < 0.01", perReq)
	}
}
