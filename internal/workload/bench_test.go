package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/memctrl"
)

func benchRunner(b *testing.B, cacheBytes int64) *Runner {
	b.Helper()
	h, vm := bootVM(b, core.ModeSiloz)
	b.Cleanup(h.Shutdown)
	ctrl, err := memctrl.New(memctrl.Config{Mapper: h.Memory().Mapper(), Timing: memctrl.DDR4_2933(), MLPWindow: 10})
	if err != nil {
		b.Fatal(err)
	}
	var cache *memctrl.Cache
	if cacheBytes > 0 {
		if cache, err = memctrl.NewCache(cacheBytes, 16); err != nil {
			b.Fatal(err)
		}
	}
	return NewRunner(vm, ctrl, cache)
}

// BenchmarkRunnerIssue times the one-line run every stream workload's access
// is. With no cache each line pays translate, decode and the controller
// (stream-defended's shape); behind a 32 MiB LLC a 16 MiB sweep settles into
// hits, so each line pays translate and a one-line cache walk (the shape of
// the cached Figs. 4-7 streams).
func BenchmarkRunnerIssue(b *testing.B) {
	for _, shape := range []struct {
		name       string
		cacheBytes int64
		span       uint64
	}{
		{"dram", 0, 64 * geometry.MiB},
		{"llc-hit", 32 * geometry.MiB, 16 * geometry.MiB},
	} {
		b.Run(shape.name, func(b *testing.B) {
			r := benchRunner(b, shape.cacheBytes)
			b.ReportAllocs()
			b.ResetTimer()
			var off uint64
			for i := 0; i < b.N; i++ {
				if err := r.Issue(Access{Offset: off, ThinkNs: 1}); err != nil {
					b.Fatal(err)
				}
				if off += 65 * line; off >= shape.span {
					off -= shape.span
				}
			}
		})
	}
}

// BenchmarkRunnerIssueRun times a serve-churn request's value: a 64-line run
// through a 1 MiB LLC. Every other run re-reads one of 128 hot values (half
// the cache); the runs between sweep 6 MiB of cold ones, so a hot run meets
// most of its lines in the cache and a cold one sends all 64 to DRAM by
// stripe. It allocates nothing.
func BenchmarkRunnerIssueRun(b *testing.B) {
	r := benchRunner(b, geometry.MiB)
	run := func(i int) error {
		value := i / 2 * 37 % 128
		if i&1 == 1 {
			value = 128 + i/2%1536
		}
		return r.IssueRun(Run{Offset: uint64(value) * 4096, Lines: 64, Write: i&2 == 0, ThinkNs: 250})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(i); err != nil {
			b.Fatal(err)
		}
		if i&3 == 3 {
			r.FinishRequest()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(r.cache.Hits())/float64(r.cache.Hits()+r.cache.Misses()), "hit-frac")
	if allocs := testing.AllocsPerRun(100, func() { _ = run(7) }); allocs != 0 {
		b.Fatalf("IssueRun allocates %v times per run, want 0", allocs)
	}
}
