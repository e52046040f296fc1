package memctrl

import (
	"fmt"

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
	// entries (0) at the tail. A hit moves the tag to the front and a miss
	// shifts the set down one and inserts at the front, so the tag that
	// falls off is always the least recently used — exact LRU without a
	// per-way stamp, and a 16-way set spans two adjacent host cache lines.
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

// Access looks a physical address up, filling on miss. It returns true on
// hit. Addresses are line-aligned internally.
func (c *Cache) Access(pa uint64) bool {
	line := pa &^ uint64(geometry.CacheLineSize-1)
	set := int((line / geometry.CacheLineSize) % uint64(c.sets))
	tags := c.tags[set*c.ways : (set+1)*c.ways]
	tag := line + 1 // +1 so 0 stays "invalid"
	for w, t := range tags {
		if t == tag {
			// Hot lines sit near the front, so the shift is usually
			// zero to a few words: a loop beats a memmove call.
			for ; w > 0; w-- {
				tags[w] = tags[w-1]
			}
			tags[0] = tag
			c.hitCount++
			return true
		}
	}
	// Miss: the tail is the LRU way (or an invalid one); drop it.
	copy(tags[1:], tags[:c.ways-1])
	tags[0] = tag
	c.missed++
	return false
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
