package workload

import (
	"testing"
)

// Pinned regressions for the small-region generator panics: Terasort drew
// rng.Intn(third/64/line) — Intn(0) once region/3 < 64 lines — and
// Sysbench both passed logBase==0 into alignDown's modulus and divided by
// zero sizing the log-append span. These calls panic on the pre-fix code.

func TestTerasortSmallRegionRegression(t *testing.T) {
	// region/3 = 2730 < 64*line, so the shuffle phase's intra-partition
	// span is zero lines.
	Terasort{}.Generate(8192, 30, 1, func(a Access) bool {
		if a.Offset >= 8192 {
			t.Fatalf("offset %#x outside region", a.Offset)
		}
		return true
	})
}

func TestSysbenchSmallRegionRegression(t *testing.T) {
	// region=64: logBase aligns down to 0 — the pre-fix code passes it to
	// alignDown as a modulus on the very first descent access.
	Sysbench{}.Generate(64, 10, 1, func(a Access) bool {
		if a.Offset >= 64 {
			t.Fatalf("offset %#x outside region", a.Offset)
		}
		return true
	})
	// region=100: logBase=64 leaves 36 bytes of log tail — less than one
	// line, so the pre-fix append offset divides by zero on the first
	// transactional write.
	Sysbench{}.Generate(100, 200, 1, func(a Access) bool {
		if a.Offset >= 100 {
			t.Fatalf("offset %#x outside region", a.Offset)
		}
		return true
	})
}

func TestKVLayoutTinyRegionRegression(t *testing.T) {
	// region=7: indexEnd = region/8 = 0 was used as a modulus in
	// indexProbe before the clamp.
	for _, w := range []Workload{Memcached{}, YCSB{Letter: 'a'}} {
		w.Generate(7, 20, 1, func(a Access) bool {
			if a.Offset >= 7 {
				t.Fatalf("%s: offset %#x outside region", w.Name(), a.Offset)
			}
			return true
		})
	}
}

// FuzzWorkloadGenerators sweeps every registered workload over arbitrary
// (including tiny and unaligned) regions: no generator may panic, and
// every emitted offset must stay inside the region.
func FuzzWorkloadGenerators(f *testing.F) {
	f.Add(uint64(64), 50, int64(1))
	f.Add(uint64(100), 100, int64(2))
	f.Add(uint64(8192), 60, int64(3))
	f.Add(uint64(1), 10, int64(4))
	f.Add(uint64(7), 20, int64(5))
	f.Add(uint64(12287), 40, int64(6))
	f.Add(uint64(1<<20+13), 50, int64(7))
	f.Add(uint64(64<<20), 30, int64(8))
	f.Fuzz(func(t *testing.T, region uint64, ops int, seed int64) {
		region %= 1 << 28
		if region == 0 {
			region = 1
		}
		if ops < 0 {
			ops = -ops
		}
		ops %= 400
		for _, w := range allWorkloads() {
			w.Generate(region, ops, seed, func(a Access) bool {
				if a.Offset >= region {
					t.Fatalf("%s: offset %#x outside region %#x", w.Name(), a.Offset, region)
				}
				// Regions sized in whole pages keep every offset
				// line-aligned; odd-sized regions may wrap unaligned.
				if region%4096 == 0 && a.Offset%line != 0 {
					t.Fatalf("%s: offset %#x not line aligned (region %#x)", w.Name(), a.Offset, region)
				}
				if a.ThinkNs < 0 {
					t.Fatalf("%s: negative think time", w.Name())
				}
				return true
			})
		}
	})
}

// TestGenerateEarlyStopDeterminism pins the contract the serving loop and
// every resumable consumer rely on: stopping emit early is invisible to
// the stream — the emitted prefix matches a full run access-for-access,
// and a fresh Generate after an early stop reproduces the full stream.
func TestGenerateEarlyStopDeterminism(t *testing.T) {
	const ops, seed = 300, 9
	for _, w := range allWorkloads() {
		full := collectSeed(t, w, ops, seed)
		stop := len(full) / 2
		if stop == 0 {
			t.Fatalf("%s: empty stream", w.Name())
		}
		var prefix []Access
		w.Generate(testRegion, ops, seed, func(a Access) bool {
			prefix = append(prefix, a)
			return len(prefix) < stop
		})
		if len(prefix) != stop {
			t.Fatalf("%s: early stop emitted %d accesses, want %d", w.Name(), len(prefix), stop)
		}
		for i := range prefix {
			if prefix[i] != full[i] {
				t.Fatalf("%s: access %d differs under early stop: %+v vs %+v",
					w.Name(), i, prefix[i], full[i])
			}
		}
		rerun := collectSeed(t, w, ops, seed)
		if len(rerun) != len(full) {
			t.Fatalf("%s: rerun after early stop emitted %d accesses, want %d",
				w.Name(), len(rerun), len(full))
		}
		for i := range rerun {
			if rerun[i] != full[i] {
				t.Fatalf("%s: rerun access %d differs", w.Name(), i)
			}
		}
	}
}

// TestKVRequestsDeterministicAndBounded covers the request-granular
// generator the serving loop drives.
func TestKVRequestsDeterministicAndBounded(t *testing.T) {
	a := NewKVRequests(testRegion, 1024, 0.9, 150, 3)
	b := NewKVRequests(testRegion, 1024, 0.9, 150, 3)
	writes := 0
	for i := 0; i < 500; i++ {
		ra, rb := a.Next(), b.Next()
		if len(ra) != len(rb) {
			t.Fatalf("request %d: lengths differ", i)
		}
		if len(ra) < 3 {
			t.Fatalf("request %d: only %d accesses", i, len(ra))
		}
		if ra[0].ThinkNs != 150 {
			t.Fatalf("request %d: first access think %v, want 150", i, ra[0].ThinkNs)
		}
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("request %d access %d differs", i, j)
			}
			if ra[j].Offset >= testRegion {
				t.Fatalf("request %d: offset %#x outside region", i, ra[j].Offset)
			}
			if ra[j].Write {
				writes++
			}
		}
	}
	if writes == 0 {
		t.Error("0.9 read fraction produced no writes in 500 requests")
	}
}

func TestKVRequestsResizeRebinds(t *testing.T) {
	k := NewKVRequests(testRegion, 1024, 1, 0, 5)
	k.Next()
	small := uint64(testRegion / 4)
	k.Resize(small)
	for i := 0; i < 200; i++ {
		for _, a := range k.Next() {
			if a.Offset >= small {
				t.Fatalf("post-resize offset %#x outside %#x", a.Offset, small)
			}
		}
	}
	// Tiny regions must not panic (same clamp as the stream generators).
	k.Resize(7)
	for _, a := range k.Next() {
		if a.Offset >= 7 {
			t.Fatalf("tiny-region offset %#x", a.Offset)
		}
	}
}
