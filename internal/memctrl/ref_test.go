package memctrl

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geometry"
)

// refCache is the stamp-LRU cache Cache replaced, kept verbatim as the
// differential oracle: per-set tag and last-use-stamp slices, victim = the
// lowest-index way with the smallest stamp. The recency-ordered layout must
// produce the same hit/miss answer on every access of every stream.
type refCache struct {
	ways     int
	sets     int
	tags     [][]uint64 // per set, line addresses (0 = invalid)
	lru      [][]int64  // per set, last-use stamps
	clock    int64
	hitCount int64
	missed   int64
}

func newRefCache(capacityBytes int64, ways int) *refCache {
	lines := capacityBytes / geometry.CacheLineSize
	sets := int(lines) / ways
	c := &refCache{ways: ways, sets: sets}
	c.tags = make([][]uint64, sets)
	c.lru = make([][]int64, sets)
	for i := range c.tags {
		c.tags[i] = make([]uint64, ways)
		c.lru[i] = make([]int64, ways)
	}
	return c
}

func (c *refCache) Access(pa uint64) bool {
	line := pa &^ uint64(geometry.CacheLineSize-1)
	set := int((line / geometry.CacheLineSize) % uint64(c.sets))
	c.clock++
	tags := c.tags[set]
	for w, t := range tags {
		if t == line+1 { // +1 so 0 stays "invalid"
			c.lru[set][w] = c.clock
			c.hitCount++
			return true
		}
	}
	// Miss: fill the LRU way.
	victim := 0
	for w := 1; w < c.ways; w++ {
		if c.lru[set][w] < c.lru[set][victim] {
			victim = w
		}
	}
	tags[victim] = line + 1
	c.lru[set][victim] = c.clock
	c.missed++
	return false
}

// runLines returns how many lines the i-th lookup of a stream covers when the
// stream is replayed as runs: lens[i%len(lens)] of them, cut short of the end
// of a tag range of tagLines lines, and one when lens is empty.
func runLines(lens []byte, i int, pa, tagLines uint64) int {
	if len(lens) == 0 {
		return 1
	}
	n := int(lens[i%len(lens)]) % 65
	if room := tagLines - pa/geometry.CacheLineSize; uint64(n) > room {
		n = int(room)
	}
	return n
}

// diffAgainstReference drives one address stream through a cache under test
// and the reference: stream[i] opens a run of runLines(lens, i, ·) lines,
// looked up in one call (through Access when lens is empty) and line by line
// in the reference. It reports the first lookup whose hit/miss answer differs.
func diffAgainstReference(run func(pa uint64, n int) uint64, ref *refCache, stream []uint64, lens []byte) error {
	tagLines := tagLimit(ref.sets)
	for i, pa := range stream {
		n := runLines(lens, i, pa, tagLines)
		missed := run(pa, n)
		for l := 0; l < n; l++ {
			if got, want := missed>>l&1 == 0, ref.Access(pa+uint64(l)*geometry.CacheLineSize); got != want {
				return fmt.Errorf("lookup %d (pa %#x, line %d of %d): hit = %v, reference %v", i, pa, l, n, got, want)
			}
		}
		if missed>>n != 0 {
			return fmt.Errorf("lookup %d (pa %#x): miss mask %#x has bits past its %d lines", i, pa, missed, n)
		}
	}
	return nil
}

// checkAgainstReference drives one address stream through both caches.
func checkAgainstReference(t *testing.T, capacity int64, ways int, stream []uint64, lens []byte) {
	t.Helper()
	c, err := NewCache(capacity, ways)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefCache(capacity, ways)
	if c.sets != ref.sets {
		t.Fatalf("sets = %d, reference %d", c.sets, ref.sets)
	}
	run := c.AccessRun
	if len(lens) == 0 {
		run = func(pa uint64, _ int) uint64 {
			if c.Access(pa) {
				return 0
			}
			return 1
		}
	}
	if err := diffAgainstReference(run, ref, stream, lens); err != nil {
		t.Fatal(err)
	}
	if c.Hits() != ref.hitCount || c.Misses() != ref.missed {
		t.Fatalf("hits/misses = %d/%d, reference %d/%d",
			c.Hits(), c.Misses(), ref.hitCount, ref.missed)
	}
}

// refStreams builds the address streams the oracle replays for a cache of
// the given shape: the access shapes the experiments produce plus the ones
// that stress replacement order.
func refStreams(sets, ways int, seed int64) map[string][]uint64 {
	const n = 20000
	rng := rand.New(rand.NewSource(seed))
	lines := uint64(sets * ways)
	streams := make(map[string][]uint64)

	seq := make([]uint64, n)
	for i := range seq { // sweeps 1.5× the capacity, so later passes evict
		seq[i] = uint64(i) % (lines + lines/2 + 1) * geometry.CacheLineSize
	}
	streams["sequential"] = seq

	zipf := rand.NewZipf(rng, 1.1, 1, 4*lines)
	zs := make([]uint64, n)
	for i := range zs {
		zs[i] = zipf.Uint64() * geometry.CacheLineSize
	}
	streams["zipfian"] = zs

	// Every line maps to one set; ways+2 distinct lines with a skewed
	// reuse pattern, so hits land at every recency position.
	conflict := make([]uint64, n)
	for i := range conflict {
		k := uint64(rng.Intn(ways + 2))
		if rng.Intn(3) == 0 {
			k = uint64(rng.Intn(2))
		}
		conflict[i] = (k*uint64(sets) + 3%uint64(sets)) * geometry.CacheLineSize
	}
	streams["single-set-conflict"] = conflict

	// Byte-granular addresses over the whole tag range folded onto a few
	// lines per set, including the top taggable line.
	end := tagLimit(sets) * geometry.CacheLineSize // the first address past the tag range
	unaligned := make([]uint64, n)
	for i := range unaligned {
		switch rng.Intn(4) {
		case 0:
			unaligned[i] = end - 1 - uint64(rng.Intn(200))
		case 1:
			unaligned[i] = rng.Uint64() % end
		default:
			unaligned[i] = uint64(rng.Int63n(int64(2*lines*geometry.CacheLineSize) + 1))
		}
	}
	streams["unaligned"] = unaligned

	// Lines whose tags lie 2¹⁶ and more apart, up to the top tag: each set
	// sees ways/2+1 tags in each of five bands, so a set holds tags that
	// agree in their low 16 bits and a narrower tag store aliases them.
	bands := []uint64{0, 1 << 16, 2 << 16, 1 << 31, tagLimit(sets)/uint64(sets) - uint64(ways/2+1)}
	far := make([]uint64, n)
	for i := range far {
		tag := bands[rng.Intn(len(bands))] + uint64(rng.Intn(ways/2+1))
		far[i] = (tag*uint64(sets) + uint64(rng.Intn(sets))) * geometry.CacheLineSize
	}
	streams["far"] = far
	return streams
}

// runLens is a fixed cycle of run lengths covering 0, 1, the mask width and
// its neighbours; its length is odd so it drifts against the streams' periods.
var runLens = []byte{1, 16, 0, 64, 3, 63, 2, 40, 1, 1, 64, 7, 33}

func TestCacheMatchesStampLRUReference(t *testing.T) {
	for _, ways := range []int{1, 2, 3, 16} {
		for _, sets := range []int{1, 8, 64, 5, 48, 100} {
			capacity := int64(sets * ways * geometry.CacheLineSize)
			for name, stream := range refStreams(sets, ways, int64(ways*1000+sets)) {
				t.Run(fmt.Sprintf("ways=%d/sets=%d/%s", ways, sets, name), func(t *testing.T) {
					checkAgainstReference(t, capacity, ways, stream, nil)
				})
				// The same stream with each address opening a run: zero to
				// 64 lines, so runs overlap, wrap the set index and evict
				// their own head.
				t.Run(fmt.Sprintf("ways=%d/sets=%d/%s/runs", ways, sets, name), func(t *testing.T) {
					checkAgainstReference(t, capacity, ways, stream[:len(stream)/8], runLens)
				})
			}
		}
	}
}

// FuzzCacheMatchesReference lets the fuzzer pick the cache shape, the stream
// and the run lengths: data is consumed as a sequence of small line-index
// deltas and occasional byte offsets, which keeps the stream dense enough to
// hit; lens cycles over the stream as each lookup's line count (mod 65), and
// an empty lens drives single-line Access.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add(uint8(16), uint16(64), []byte{0, 1, 2, 1, 0, 200, 3, 3, 17, 0}, []byte{})
	f.Add(uint8(1), uint16(1), []byte{5, 5, 6, 5}, []byte{2, 1})
	f.Add(uint8(3), uint16(5), []byte{255, 254, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 0}, []byte{64, 0, 7})
	f.Add(uint8(16), uint16(64), []byte{0, 1, 2, 1, 0, 200, 3, 3, 17, 0}, []byte{16, 64, 1, 3})
	f.Fuzz(func(t *testing.T, ways uint8, sets uint16, data, lens []byte) {
		w, s := int(ways%16)+1, int(sets%512)+1
		stream := make([]uint64, 0, len(data))
		var line uint64
		for i, b := range data {
			switch {
			case b >= 250: // jump to a conflicting line in the same set
				line += uint64(s) * uint64(b-249)
			case b >= 128: // step backwards
				line -= uint64(b - 128)
			default:
				line += uint64(b)
			}
			// A step back from line 0 wraps the counter; fold it into the
			// tag range.
			stream = append(stream, line%tagLimit(s)*geometry.CacheLineSize+uint64(i%geometry.CacheLineSize))
		}
		checkAgainstReference(t, int64(s*w*geometry.CacheLineSize), w, stream, lens)
	})
}

// shortCarryCache is Cache with the single pass stopped one slot early: the
// carry never reaches a set's last way, so that way keeps a stale tag and the
// true LRU line is not the one a miss drops.
type shortCarryCache struct{ *Cache }

func (c shortCarryCache) AccessRun(pa uint64, n int) (missed uint64) {
	for i := 0; i < n; i++ {
		line := pa/geometry.CacheLineSize + uint64(i)
		set := int(line % uint64(c.sets))
		tags := c.tags[set*c.ways : (set+1)*c.ways]
		tag := uint32(line/uint64(c.sets)) + 1
		carry, hit := tag, false
		for w, t := range tags[:len(tags)-1] {
			tags[w] = carry
			if t == tag {
				hit = true
				break
			}
			carry = t
		}
		if !hit && tags[len(tags)-1] != tag {
			missed |= 1 << i
		}
	}
	return missed
}

// narrowTagCache is Cache with each tag cut to its low 16 bits: two lines of
// one set whose tags agree there alias, and the second hits on the first's
// entry.
type narrowTagCache struct{ *Cache }

func (c narrowTagCache) AccessRun(pa uint64, n int) (missed uint64) {
	for i := 0; i < n; i++ {
		line := pa/geometry.CacheLineSize + uint64(i)
		set := int(line % uint64(c.sets))
		if !lookup(c.tags[set*c.ways:(set+1)*c.ways], uint32(uint16(line/uint64(c.sets)+1))) {
			missed |= 1 << i
		}
	}
	return missed
}

// TestDifferentialCatchesShortCarry shows the harness has teeth: a single pass
// that stops carrying one slot early is reported on both stream shapes that
// re-reference lines at depth (a cyclic sweep past capacity misses on every
// lookup either way, and the unaligned stream never fills a set), as single
// lookups and as runs.
func TestDifferentialCatchesShortCarry(t *testing.T) {
	const sets, ways = 64, 16
	capacity := int64(sets * ways * geometry.CacheLineSize)
	streams := refStreams(sets, ways, 1)
	for _, name := range []string{"zipfian", "single-set-conflict"} {
		stream := streams[name]
		for _, lens := range [][]byte{nil, runLens} {
			c, err := NewCache(capacity, ways)
			if err != nil {
				t.Fatal(err)
			}
			mutant := shortCarryCache{c}
			if err := diffAgainstReference(mutant.AccessRun, newRefCache(capacity, ways), stream, lens); err == nil {
				t.Errorf("%s (runs: %v): a carry stopped one slot early went unnoticed over %d lookups", name, lens != nil, len(stream))
			}
		}
	}
}

// TestDifferentialCatchesNarrowTags: the far stream is what tells the 32-bit
// tag store from a 16-bit one. A store that keeps each tag's low 16 bits is
// reported on it at one set and at many, direct-mapped and 16-way, as single
// lookups and as runs.
func TestDifferentialCatchesNarrowTags(t *testing.T) {
	for _, shape := range []struct{ sets, ways int }{{1, 1}, {5, 3}, {64, 16}} {
		capacity := int64(shape.sets * shape.ways * geometry.CacheLineSize)
		stream := refStreams(shape.sets, shape.ways, 1)["far"]
		for _, lens := range [][]byte{nil, runLens} {
			c, err := NewCache(capacity, shape.ways)
			if err != nil {
				t.Fatal(err)
			}
			mutant := narrowTagCache{c}
			if err := diffAgainstReference(mutant.AccessRun, newRefCache(capacity, shape.ways), stream, lens); err == nil {
				t.Errorf("sets=%d ways=%d (runs: %v): 16-bit tags went unnoticed over %d lookups",
					shape.sets, shape.ways, lens != nil, len(stream))
			}
		}
	}
}
