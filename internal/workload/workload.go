// Package workload models the memory behaviour of the paper's evaluation
// workloads (§7): redis+YCSB A-F, Hadoop terasort, SPEC CPU 2017, PARSEC
// 3.0, memcached, SysBench mySQL, and Intel MLC. Each workload emits a
// deterministic, seeded stream of guest-RAM accesses (post-cache memory
// references) that the memctrl model turns into execution time and
// throughput.
package workload

import (
	"math/rand"

	"repro/internal/geometry"
)

// Access is one memory reference within a VM's RAM.
type Access struct {
	// Offset is the byte offset into guest RAM (cache-line granular).
	Offset uint64
	// Write marks stores.
	Write bool
	// ThinkNs is compute time preceding the access.
	ThinkNs float64
}

// Workload deterministically generates an access stream.
type Workload interface {
	// Name identifies the workload in reports (e.g. "redis-a").
	Name() string
	// Generate emits ops logical operations' worth of accesses over a
	// RAM region of the given size. emit returns false to stop early.
	Generate(region uint64, ops int, seed int64, emit func(Access) bool)
}

const line = geometry.CacheLineSize

// alignDown clamps an offset to a cache line inside the region.
func alignDown(off, region uint64) uint64 {
	off %= region
	return off &^ uint64(line-1)
}

// zipfKey builds the skewed key popularity distribution YCSB uses.
func zipfKey(rng *rand.Rand, keys uint64) *rand.Zipf {
	if keys < 2 {
		keys = 2
	}
	return rand.NewZipf(rng, 1.1, 1, keys-1)
}

// kvLayout models a redis/memcached-style store in guest RAM: a hash index
// occupying the first eighth of the region and values in the rest.
type kvLayout struct {
	region    uint64
	indexEnd  uint64
	valueSize uint64
	keys      uint64
}

func newKVLayout(region, valueSize uint64) kvLayout {
	l := kvLayout{region: region, indexEnd: region / 8, valueSize: valueSize}
	if l.indexEnd == 0 {
		// Tiny regions: indexEnd is a modulus in indexProbe, so it must
		// stay positive; index and values share the whole region.
		l.indexEnd = region
	}
	l.keys = (region - l.indexEnd) / valueSize
	if l.keys < 2 {
		l.keys = 2
	}
	return l
}

// indexProbe returns the index cache lines touched to look up a key
// (bucket head plus one chain step).
func (l kvLayout) indexProbe(key uint64) [2]uint64 {
	h := key * 0x9E3779B97F4A7C15
	b0 := alignDown(h%l.indexEnd, l.indexEnd)
	b1 := alignDown((h>>17)%l.indexEnd, l.indexEnd)
	return [2]uint64{b0, b1}
}

// valueBase returns the first byte of a key's value blob.
func (l kvLayout) valueBase(key uint64) uint64 {
	return l.indexEnd + (key%l.keys)*l.valueSize
}

// emitValue touches the value's lines, reading or writing.
func (l kvLayout) emitValue(key uint64, write bool, think float64, emit func(Access) bool) bool {
	base := l.valueBase(key)
	for off := uint64(0); off < l.valueSize; off += line {
		if !emit(Access{Offset: (base + off) % l.region, Write: write, ThinkNs: think}) {
			return false
		}
		think = 0
	}
	return true
}

// emitLookup touches the index lines for a key.
func (l kvLayout) emitLookup(key uint64, think float64, emit func(Access) bool) bool {
	for _, off := range l.indexProbe(key) {
		if !emit(Access{Offset: off, ThinkNs: think}) {
			return false
		}
		think = 0
	}
	return true
}
