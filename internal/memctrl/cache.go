package memctrl

import (
	"fmt"
	"math"
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
	// tags holds sets × ways set-relative tags, one set after another. A
	// line's set is its line number modulo the set count, so the tag only
	// has to tell apart the lines that share a set: it is the line number
	// divided by the set count, plus one so that 0 stays "invalid". That
	// fits 32 bits for every line below (2³²−1)·sets (see NewCache), and four
	// bytes a way put a 16-way set in one 64-byte host cache line. Each set
	// is kept in recency order: most recently used first, invalid entries at
	// the tail. A lookup puts the tag at the front and moves the tags ahead
	// of its old position (all of them, on a miss) down one, so the tag that
	// falls off is always the least recently used — exact LRU without a
	// per-way stamp.
	tags []uint32
	// tagLines is the number of lines, counted from address 0, whose tag
	// fits 32 bits; see NewCache.
	tagLines uint64
	hitCount int64
	missed   int64
	// HitNs is the service latency of a cache hit.
	HitNs float64
}

// addrLines is the number of cache lines in the 64-bit address space.
const addrLines = 1 << (64 - 6)

// tagLimit returns how many lines, from address 0, a cache of the given set
// count can tag in 32 bits: (2³²−1)·sets, capped at the address space.
func tagLimit(sets int) uint64 {
	hi, lo := bits.Mul64(uint64(sets), math.MaxUint32)
	if hi != 0 || lo > addrLines {
		return addrLines
	}
	return lo
}

// NewCache builds a cache of the given capacity and associativity. Its tags
// cover the physical addresses below (2³²−1)·sets lines: 256 GiB for a
// one-set cache, at least 512 GiB for two sets or more, and all of x86's
// 52-bit physical address space for an LLC of 16 MiB or more at 16 ways.
// Access and AccessRun panic on an address past that range; every simulated
// machine ends well below it (geometry.TotalBytes is at most 384 GiB).
func NewCache(capacityBytes int64, ways int) (*Cache, error) {
	if ways <= 0 {
		return nil, fmt.Errorf("memctrl: ways must be positive")
	}
	lines := capacityBytes / geometry.CacheLineSize
	sets := int(lines) / ways
	if sets <= 0 {
		return nil, fmt.Errorf("memctrl: capacity %d too small for %d ways", capacityBytes, ways)
	}
	return &Cache{ways: ways, sets: sets, tags: make([]uint32, sets*ways), tagLines: tagLimit(sets), HitNs: 20}, nil
}

// lookup is the one loop that scans a set: it puts tag at the front of the
// recency-ordered tags and reports whether the set held it. It is a single
// pass: the new tag is carried down the recency order, every slot taking its
// predecessor's tag, until the line's old copy is met (a hit: the slots
// behind it keep their places) or the tail falls off the end (a miss: the
// tail was the LRU way, or an invalid one).
func lookup(tags []uint32, tag uint32) bool {
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

// outOfRange panics on a lookup of n lines at pa that Access or AccessRun
// cannot take.
func (c *Cache) outOfRange(pa uint64, n int) {
	panic(fmt.Sprintf("memctrl: lookup of %d lines at %#x, want 0 to 64 lines below line %#x, where the cache's 32-bit tags end",
		n, pa, c.tagLines))
}

// Access looks a physical address up, filling on miss. It returns true on
// hit. Addresses are line-aligned internally; pa must lie in the tag range
// (see NewCache).
func (c *Cache) Access(pa uint64) bool {
	line := pa / geometry.CacheLineSize
	if line >= c.tagLines {
		c.outOfRange(pa, 1)
	}
	sets := uint64(c.sets)
	set := int(line % sets)
	if lookup(c.tags[set*c.ways:(set+1)*c.ways], uint32(line/sets)+1) { // +1 so 0 stays "invalid"
		c.hitCount++
		return true
	}
	c.missed++
	return false
}

// AccessRun looks up the n consecutive cache lines starting at pa's line, in
// address order, filling on miss exactly as n Access calls would. Bit i of the
// result is set when line i missed. n must lie in [0, 64], the mask's width,
// and the run must end inside the tag range. Consecutive lines index
// consecutive sets, so the run pays one division for its first line's set
// and tag and then steps, the tag going up by one where the run wraps past
// the last set.
func (c *Cache) AccessRun(pa uint64, n int) (missed uint64) {
	line := pa / geometry.CacheLineSize
	if uint(n) > 64 || line+uint64(n) > c.tagLines {
		c.outOfRange(pa, n)
	}
	sets := uint64(c.sets)
	set, tag := int(line%sets), uint32(line/sets)+1
	for i := 0; i < n; i++ {
		if !lookup(c.tags[set*c.ways:(set+1)*c.ways], tag) {
			missed |= 1 << i
		}
		if set++; set == c.sets {
			set, tag = 0, tag+1
		}
	}
	misses := int64(bits.OnesCount64(missed))
	c.missed += misses
	c.hitCount += int64(n) - misses
	return missed
}

// Hits and Misses expose the raw counters.
func (c *Cache) Hits() int64   { return c.hitCount }
func (c *Cache) Misses() int64 { return c.missed }
