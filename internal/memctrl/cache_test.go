package memctrl

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/geometry"
)

func TestCacheBasicHitMiss(t *testing.T) {
	c, err := NewCache(64*geometry.KiB, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("warm access missed")
	}
	if !c.Access(0x1010) {
		t.Error("same-line access missed")
	}
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
	if got := c.HitRate(); got < 0.66 || got > 0.67 {
		t.Errorf("HitRate = %v", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache: a set holds two lines; a third conflicting line
	// evicts the least-recently-used one.
	c, err := NewCache(2*4*geometry.CacheLineSize, 2) // 4 sets, 2 ways
	if err != nil {
		t.Fatal(err)
	}
	setStride := uint64(4 * geometry.CacheLineSize) // same set every stride
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a)
	c.Access(b)
	c.Access(a) // a most recent
	c.Access(d) // evicts b
	if !c.Access(a) {
		t.Error("a evicted despite being MRU")
	}
	if c.Access(b) {
		t.Error("b should have been evicted")
	}
}

func TestCacheCapacityAbsorbsWorkingSet(t *testing.T) {
	c, err := NewCache(1<<20, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Working set half the capacity: second pass all hits.
	lines := (1 << 19) / geometry.CacheLineSize
	for i := 0; i < lines; i++ {
		c.Access(uint64(i) * geometry.CacheLineSize)
	}
	for i := 0; i < lines; i++ {
		if !c.Access(uint64(i) * geometry.CacheLineSize) {
			t.Fatalf("line %d missed on second pass", i)
		}
	}
}

func TestCacheValidation(t *testing.T) {
	if _, err := NewCache(1024, 0); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := NewCache(64, 16); err == nil {
		t.Error("capacity below one set accepted")
	}
	empty, err := NewCache(1<<16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if empty.HitRate() != 0 {
		t.Error("empty cache hit rate nonzero")
	}
}

func TestControllerIdleAndStrings(t *testing.T) {
	g := tinyGeometry()
	m, _ := addr.NewSkylakeMapper(g)
	c := newCtrl(t, m, 2)
	c.Idle(500)
	if got := c.Result().TotalNs; got != 500 {
		t.Errorf("Idle total = %v", got)
	}
	if c.Result().String() == "" {
		t.Error("empty Result string")
	}
}

// TestAccessRunRejectsBadRuns: a run wider than the 64-bit miss mask, of
// negative length, or past the top of the address space panics; the widest
// legal ones do not.
func TestAccessRunRejectsBadRuns(t *testing.T) {
	c, err := NewCache(1<<20, 16)
	if err != nil {
		t.Fatal(err)
	}
	top := ^uint64(0) &^ uint64(geometry.CacheLineSize-1) // the last line
	for _, tc := range []struct {
		pa     uint64
		n      int
		panics bool
	}{
		{0, 0, false}, {0, 64, false}, {top, 1, false}, {top - 63*geometry.CacheLineSize, 64, false},
		{0, -1, true}, {0, 65, true}, {top, 2, true},
	} {
		func() {
			defer func() {
				if got := recover() != nil; got != tc.panics {
					t.Errorf("AccessRun(%#x, %d): panicked = %v, want %v", tc.pa, tc.n, got, tc.panics)
				}
			}()
			c.AccessRun(tc.pa, tc.n)
		}()
	}
}
