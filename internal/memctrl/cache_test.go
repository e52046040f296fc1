package memctrl

import (
	"fmt"
	"math"
	"runtime"
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
	if empty.Hits() != 0 || empty.Misses() != 0 {
		t.Error("empty cache counted accesses")
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

// panics reports whether f panicked.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// TestAccessRunRejectsBadRuns: a run wider than the 64-bit miss mask, of
// negative length, or past the cache's tag range panics; the widest legal
// ones do not.
func TestAccessRunRejectsBadRuns(t *testing.T) {
	c, err := NewCache(1<<20, 16)
	if err != nil {
		t.Fatal(err)
	}
	top := (c.tagLines - 1) * geometry.CacheLineSize // the last taggable line
	for _, tc := range []struct {
		pa     uint64
		n      int
		panics bool
	}{
		{0, 0, false}, {0, 64, false}, {top, 1, false}, {top - 63*geometry.CacheLineSize, 64, false},
		{top + geometry.CacheLineSize, 0, false},
		{0, -1, true}, {0, 65, true}, {top, 2, true}, {top + geometry.CacheLineSize, 1, true},
		{^uint64(0), 1, true},
	} {
		if got := panics(func() { c.AccessRun(tc.pa, tc.n) }); got != tc.panics {
			t.Errorf("AccessRun(%#x, %d): panicked = %v, want %v", tc.pa, tc.n, got, tc.panics)
		}
	}
}

// TestTagLimit: a cache tags (2³²−1)·sets lines, capped at the 2⁵⁸ lines of
// the 64-bit address space.
func TestTagLimit(t *testing.T) {
	for _, tc := range []struct {
		sets int
		want uint64
	}{
		{1, math.MaxUint32},      // 256 GiB less a line
		{2, 2 * math.MaxUint32},  // 512 GiB less two lines
		{1 << 14, 1<<46 - 1<<14}, // a 16 MiB, 16-way LLC: past 2⁵² bytes
		{1 << 26, 1<<58 - 1<<26}, // the last set count below the cap
		{1<<26 + 1, 1 << 58},     // the first at it
		{1 << 57, 1 << 58},       // the product overflows 64 bits
	} {
		if got := tagLimit(tc.sets); got != tc.want {
			t.Errorf("tagLimit(%d) = %#x, want %#x", tc.sets, got, tc.want)
		}
	}
}

// TestTagRangeBoundary: the last line whose tag fits 32 bits is cached like
// any other, through Access and AccessRun and as a run's last line, and the
// next line panics, alone or as the tail of a run, without touching the
// cache. The hit/miss answers come from the stamp-LRU reference, which keeps
// whole line addresses.
func TestTagRangeBoundary(t *testing.T) {
	const line = geometry.CacheLineSize
	for _, shape := range []struct{ sets, ways int }{{1, 1}, {1, 16}, {3, 2}, {1024, 16}, {1 << 14, 16}} {
		t.Run(fmt.Sprintf("sets=%d/ways=%d", shape.sets, shape.ways), func(t *testing.T) {
			capacity := int64(shape.sets * shape.ways * line)
			c, err := NewCache(capacity, shape.ways)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefCache(capacity, shape.ways)
			last := (uint64(shape.sets)*math.MaxUint32 - 1) * line // the last taggable line
			same := last % (uint64(shape.sets) * line)             // its set's first line
			for i, pa := range []uint64{last, last + line - 1, same, last, same + 7, last} {
				if got, want := c.Access(pa), ref.Access(pa); got != want {
					t.Fatalf("Access %d (%#x): hit = %v, reference %v", i, pa, got, want)
				}
			}
			for i, run := range []struct {
				pa uint64
				n  int
			}{{last, 1}, {last - 63*line, 64}, {same, 3}, {last - line, 2}, {last - 40*line + 5, 41}} {
				missed := c.AccessRun(run.pa, run.n)
				for l := 0; l < run.n; l++ {
					if got, want := missed>>l&1 == 0, ref.Access(run.pa+uint64(l)*line); got != want {
						t.Fatalf("AccessRun %d (%#x, %d), line %d: hit = %v, reference %v", i, run.pa, run.n, l, got, want)
					}
				}
			}
			hits, misses := c.Hits(), c.Misses()
			for _, pa := range []uint64{last + line, last + 2*line - 1, ^uint64(0)} {
				if !panics(func() { c.Access(pa) }) {
					t.Errorf("Access(%#x) past the tag range did not panic", pa)
				}
			}
			for _, run := range []struct {
				pa uint64
				n  int
			}{{last + line, 1}, {last, 2}, {last - 62*line, 64}, {last - line + 1, 3}} {
				if !panics(func() { c.AccessRun(run.pa, run.n) }) {
					t.Errorf("AccessRun(%#x, %d) past the tag range did not panic", run.pa, run.n)
				}
			}
			if c.Hits() != hits || c.Misses() != misses {
				t.Errorf("a rejected lookup moved the counters: %d/%d → %d/%d", hits, misses, c.Hits(), c.Misses())
			}
			if got, want := c.Access(last), ref.Access(last); got != want {
				t.Errorf("Access(last) after the rejected lookups: hit = %v, reference %v", got, want)
			}
		})
	}
}

// TestCacheTagFootprint pins the tag store at four bytes a way: the serving
// loop's 32 MiB, 16-way LLC allocates its 2 MiB of tags and a small constant,
// where 8-byte tags would allocate 4 MiB. TotalAlloc is process-wide, so an
// allocation elsewhere in the test binary can land inside one measurement;
// NewCache allocates the same bytes every call, so the least of several
// deltas is its own.
func TestCacheTagFootprint(t *testing.T) {
	got := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := NewCache(32*geometry.MiB, 16)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got = min(got, after.TotalAlloc-before.TotalAlloc)
		runtime.KeepAlive(c)
	}
	if limit := uint64(2*geometry.MiB + 4*geometry.KiB); got > limit {
		t.Errorf("NewCache(32 MiB, 16) allocated %d bytes, want at most %d", got, limit)
	}
}
