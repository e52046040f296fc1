package memctrl

import (
	"fmt"
	"math/bits"

	"repro/internal/geometry"
)

// Cache models the CPU's last-level cache in front of the memory
// controller: a physically-indexed, set-associative, write-back LRU cache.
// Hot lines (e.g. zipfian-popular keys) are served here and never reach
// DRAM — which is why placement-only changes like Siloz's leave workload
// performance unchanged (§7.2-7.3): only the DRAM-miss stream differs, and
// its bank/row statistics are placement-invariant in aggregate.
type Cache struct {
	ways int
	sets int
	// tags holds sets × ways line addresses, one set after another. Each
	// set is kept in recency order: most recently used first, invalid
	// entries (0) at the tail. A lookup puts the tag at the front and moves
	// the tags ahead of its old position (all of them, on a miss) down one,
	// so the tag that falls off is always the least recently used — exact
	// LRU without a per-way stamp, and a 16-way set spans two adjacent host
	// cache lines.
	tags     []uint64
	hitCount int64
	missed   int64
	// HitNs is the service latency of a cache hit.
	HitNs float64
}

// NewCache builds a cache of the given capacity and associativity.
func NewCache(capacityBytes int64, ways int) (*Cache, error) {
	if ways <= 0 {
		return nil, fmt.Errorf("memctrl: ways must be positive")
	}
	lines := capacityBytes / geometry.CacheLineSize
	sets := int(lines) / ways
	if sets <= 0 {
		return nil, fmt.Errorf("memctrl: capacity %d too small for %d ways", capacityBytes, ways)
	}
	return &Cache{ways: ways, sets: sets, tags: make([]uint64, sets*ways), HitNs: 20}, nil
}

// lookup is the one loop that scans a set: it puts tag at the front of the
// recency-ordered tags and reports whether the set held it. It is a single
// pass: the new tag is carried down the recency order, every slot taking its
// predecessor's tag, until the line's old copy is met (a hit: the slots
// behind it keep their places) or the tail falls off the end (a miss: the
// tail was the LRU way, or an invalid one).
func lookup(tags []uint64, tag uint64) bool {
	carry := tag
	for w, t := range tags {
		tags[w] = carry
		if t == tag {
			return true
		}
		carry = t
	}
	return false
}

// Access looks a physical address up, filling on miss. It returns true on
// hit. Addresses are line-aligned internally.
func (c *Cache) Access(pa uint64) bool {
	line := pa &^ uint64(geometry.CacheLineSize-1)
	set := int((line / geometry.CacheLineSize) % uint64(c.sets))
	if lookup(c.tags[set*c.ways:(set+1)*c.ways], line+1) { // +1 so 0 stays "invalid"
		c.hitCount++
		return true
	}
	c.missed++
	return false
}

// AccessRun looks up the n consecutive cache lines starting at pa's line, in
// address order, filling on miss exactly as n Access calls would. Bit i of the
// result is set when line i missed. n must lie in [0, 64], the mask's width,
// and the run must end below the top of the address space. Consecutive lines
// index consecutive sets, so the run pays one set-index division and then
// steps.
func (c *Cache) AccessRun(pa uint64, n int) (missed uint64) {
	line := pa &^ uint64(geometry.CacheLineSize-1)
	if uint(n) > 64 || (n > 1 && line+uint64(n-1)*geometry.CacheLineSize < line) {
		panic(fmt.Sprintf("memctrl: AccessRun of %d lines at %#x, want 0 to 64 lines that do not wrap the address space", n, pa))
	}
	set := int((line / geometry.CacheLineSize) % uint64(c.sets))
	tag := line + 1
	for i := 0; i < n; i++ {
		if !lookup(c.tags[set*c.ways:(set+1)*c.ways], tag) {
			missed |= 1 << i
		}
		tag += geometry.CacheLineSize
		if set++; set == c.sets {
			set = 0
		}
	}
	misses := int64(bits.OnesCount64(missed))
	c.missed += misses
	c.hitCount += int64(n) - misses
	return missed
}

// HitRate returns the fraction of accesses served by the cache.
func (c *Cache) HitRate() float64 {
	total := c.hitCount + c.missed
	if total == 0 {
		return 0
	}
	return float64(c.hitCount) / float64(total)
}

// Hits and Misses expose the raw counters.
func (c *Cache) Hits() int64   { return c.hitCount }
func (c *Cache) Misses() int64 { return c.missed }
