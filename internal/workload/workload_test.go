package workload

import (
	"testing"

	"repro/internal/geometry"
)

const testRegion = 64 * geometry.MiB

// collect gathers up to n accesses from a workload.
func collect(t *testing.T, w Workload, ops int) []Access {
	t.Helper()
	var out []Access
	w.Generate(testRegion, ops, 42, func(a Access) bool {
		out = append(out, a)
		return true
	})
	if len(out) == 0 {
		t.Fatalf("%s produced no accesses", w.Name())
	}
	return out
}

// allWorkloads returns one instance of every workload: YCSB A-F, the batch
// workloads (terasort, memcached, mysql), the SPEC and PARSEC suite kernels,
// and the MLC bandwidth modes. It is the sweep set for fuzzing and
// determinism tests — a workload added here is automatically covered.
func allWorkloads() []Workload {
	ws := AllYCSB()
	ws = append(ws, Terasort{}, Memcached{}, Sysbench{})
	ws = append(ws, SPECSuite()...)
	ws = append(ws, PARSECSuite()...)
	return append(ws, AllMLC()...)
}

func TestAllWorkloadsEmitValidAccesses(t *testing.T) {
	for _, w := range allWorkloads() {
		t.Run(w.Name(), func(t *testing.T) {
			for _, a := range collect(t, w, 500) {
				if a.Offset >= testRegion {
					t.Fatalf("offset %#x outside region", a.Offset)
				}
				if a.Offset%geometry.CacheLineSize != 0 {
					t.Fatalf("offset %#x not line aligned", a.Offset)
				}
				if a.ThinkNs < 0 {
					t.Fatalf("negative think time")
				}
			}
		})
	}
}

func TestWorkloadsAreDeterministic(t *testing.T) {
	for _, w := range allWorkloads() {
		a := collectSeed(t, w, 200, 7)
		b := collectSeed(t, w, 200, 7)
		if len(a) != len(b) {
			t.Fatalf("%s: lengths differ", w.Name())
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: access %d differs", w.Name(), i)
			}
		}
	}
}

func collectSeed(t *testing.T, w Workload, ops int, seed int64) []Access {
	t.Helper()
	var out []Access
	w.Generate(testRegion, ops, seed, func(a Access) bool {
		out = append(out, a)
		return true
	})
	return out
}

func TestSeedChangesStream(t *testing.T) {
	a := collectSeed(t, YCSB{Letter: 'a'}, 200, 1)
	b := collectSeed(t, YCSB{Letter: 'a'}, 200, 2)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical YCSB streams")
	}
}

func TestEmitStopPropagates(t *testing.T) {
	for _, w := range allWorkloads() {
		n := 0
		w.Generate(testRegion, 1000, 1, func(Access) bool {
			n++
			return n < 10
		})
		if n != 10 {
			t.Errorf("%s: emitted %d accesses after stop at 10", w.Name(), n)
		}
	}
}

func TestYCSBMixes(t *testing.T) {
	frac := func(letter byte) float64 {
		accs := collect(t, YCSB{Letter: letter}, 3000)
		writes := 0
		for _, a := range accs {
			if a.Write {
				writes++
			}
		}
		return float64(writes) / float64(len(accs))
	}
	// C is read-only.
	if f := frac('c'); f != 0 {
		t.Errorf("YCSB-C write fraction %.3f, want 0", f)
	}
	// A writes roughly half its value traffic; B only ~5%.
	fa, fb := frac('a'), frac('b')
	if fa <= fb {
		t.Errorf("YCSB-A writes (%.3f) should exceed YCSB-B writes (%.3f)", fa, fb)
	}
	if fb > 0.15 {
		t.Errorf("YCSB-B write fraction %.3f too high", fb)
	}
}

func TestYCSBZipfianSkew(t *testing.T) {
	// The hottest value must absorb far more than 1/keys of accesses.
	accs := collect(t, YCSB{Letter: 'c'}, 5000)
	counts := make(map[uint64]int)
	for _, a := range accs {
		counts[a.Offset] += 1
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if float64(maxCount)/float64(len(accs)) < 0.01 {
		t.Error("no hot line; zipfian skew missing")
	}
}

func TestYCSBUnknownLetterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown letter did not panic")
		}
	}()
	YCSB{Letter: 'z'}.Generate(testRegion, 1, 1, func(Access) bool { return true })
}

func TestMLCRatios(t *testing.T) {
	ratio := func(mode string) float64 {
		accs := collect(t, MLC{Mode: mode, Threads: 4}, 4000)
		reads, writes := 0, 0
		for _, a := range accs {
			if a.Write {
				writes++
			} else {
				reads++
			}
		}
		if writes == 0 {
			return -1
		}
		return float64(reads) / float64(writes)
	}
	if r := ratio("reads"); r != -1 {
		t.Errorf("mlc-reads has writes (r=%v)", r)
	}
	r31, r21, r11 := ratio("3:1"), ratio("2:1"), ratio("1:1")
	if !(r31 > r21 && r21 > r11) {
		t.Errorf("MLC ratios not ordered: 3:1=%.2f 2:1=%.2f 1:1=%.2f", r31, r21, r11)
	}
	if r11 < 0.5 || r11 > 2 {
		t.Errorf("mlc-1:1 ratio %.2f far from 1", r11)
	}
	// Stream triad: 2 reads per write.
	if rs := ratio("stream"); rs < 1.8 || rs > 2.2 {
		t.Errorf("mlc-stream ratio %.2f, want ~2", rs)
	}
}

func TestMLCUnknownModePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown mode did not panic")
		}
	}()
	MLC{Mode: "bogus"}.Generate(testRegion, 1, 1, func(Access) bool { return true })
}

func TestMLCStreamIsSequentialPerArray(t *testing.T) {
	accs := collectSeed(t, MLC{Mode: "reads", Threads: 1}, 100, 1)
	for i := 1; i < len(accs); i++ {
		if accs[i].Offset != accs[i-1].Offset+geometry.CacheLineSize {
			t.Fatalf("mlc-reads not sequential at %d", i)
		}
	}
}

func TestKernelThreadsPartitionRegion(t *testing.T) {
	k := Kernel{KernelName: "k", StreamFrac: 1, Threads: 4}
	accs := collectSeed(t, k, 400, 3)
	quarter := uint64(testRegion / 4)
	for i, a := range accs {
		ti := i % 4
		if a.Offset/quarter != uint64(ti) {
			t.Fatalf("thread %d access at %#x outside its partition", ti, a.Offset)
		}
	}
}

func TestSuitesHaveExpectedMembers(t *testing.T) {
	if len(SPECSuite()) < 4 || len(PARSECSuite()) < 4 {
		t.Error("suites too small")
	}
	if len(AllYCSB()) != 6 {
		t.Error("AllYCSB should have 6 workloads")
	}
	if len(AllMLC()) != 5 {
		t.Error("AllMLC should have 5 modes")
	}
	names := make(map[string]bool)
	for _, w := range allWorkloads() {
		if names[w.Name()] {
			t.Errorf("duplicate workload name %s", w.Name())
		}
		names[w.Name()] = true
	}
}

func TestSysbenchWritesLog(t *testing.T) {
	accs := collect(t, Sysbench{}, 2000)
	writes := 0
	for _, a := range accs {
		if a.Write {
			writes++
		}
	}
	if writes == 0 {
		t.Error("sysbench never wrote")
	}
}

func TestTerasortTouchesAllPhases(t *testing.T) {
	accs := collect(t, Terasort{}, 3000)
	reads, writes := 0, 0
	for _, a := range accs {
		if a.Write {
			writes++
		} else {
			reads++
		}
	}
	if reads == 0 || writes == 0 {
		t.Errorf("terasort reads=%d writes=%d", reads, writes)
	}
}
