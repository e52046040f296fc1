package memctrl

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/geometry"
	"repro/internal/mitigation"
)

func BenchmarkControllerStream(b *testing.B) {
	g := geometry.Default()
	m, err := addr.NewSkylakeMapper(g)
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(Config{Mapper: m, Timing: DDR4_2933(), MLPWindow: 10})
	if err != nil {
		b.Fatal(err)
	}
	total := uint64(g.TotalBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Do(Access{PA: uint64(i) * geometry.CacheLineSize % total}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheAccess times the LLC model on the three access shapes the
// request path produces, on the serving loop's default 32 MiB, 16-way cache.
func BenchmarkCacheAccess(b *testing.B) {
	const capacity, ways = 32 << 20, 16
	run := func(name string, addrs []uint64) {
		b.Run(name, func(b *testing.B) {
			c, err := NewCache(capacity, ways)
			if err != nil {
				b.Fatal(err)
			}
			for _, pa := range addrs { // warm: timed accesses see a settled cache
				c.Access(pa)
			}
			b.ResetTimer()
			// A wrapping index, not i%len(addrs): the stream lengths are not
			// constants, so the modulo is a 64-bit divide inside the timed
			// loop — a fifth of what a hit costs.
			for i, next := 0, 0; i < b.N; i++ {
				c.Access(addrs[next])
				if next++; next == len(addrs) {
					next = 0
				}
			}
		})
	}

	// One resident line per set: every access hits the most recent way.
	mru := make([]uint64, 4096)
	for i := range mru {
		mru[i] = uint64(i) * geometry.CacheLineSize
	}
	run("hit-mru", mru)

	// The serve-quiet shape: zipf 1.1 popularity over a 64 MiB region, so
	// hits land at every recency position and a tail of accesses misses.
	const regionLines = (64 << 20) / geometry.CacheLineSize
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, regionLines-1)
	zs := make([]uint64, 1<<20)
	for i := range zs {
		// Scatter ranks over the region as a KV store's hashing does.
		zs[i] = zipf.Uint64() * 2654435761 % regionLines * geometry.CacheLineSize
	}
	run("hit-zipf", zs)

	// ways+1 lines cycling through one set: every access evicts the LRU way.
	sets := uint64(capacity / geometry.CacheLineSize / ways)
	conflict := make([]uint64, ways+1)
	for i := range conflict {
		conflict[i] = uint64(i) * sets * geometry.CacheLineSize
	}
	run("miss-conflict", conflict)
}

// BenchmarkCacheAccessRun times the run lookup on the two value shapes the
// serving workloads issue — 16 lines (1 KiB, serve-quiet's 32 MiB LLC) and 64
// lines (4 KiB, serve-churn's 1 MiB LLC) — over zipf-popular values scattered
// through a 64 MiB region; ns/op is per run.
func BenchmarkCacheAccessRun(b *testing.B) {
	for _, shape := range []struct {
		name     string
		capacity int64
		lines    int
	}{
		{"value-1k", 32 << 20, 16},
		{"value-4k", 1 << 20, 64},
	} {
		b.Run(shape.name, func(b *testing.B) {
			c, err := NewCache(shape.capacity, 16)
			if err != nil {
				b.Fatal(err)
			}
			valueBytes := uint64(shape.lines) * geometry.CacheLineSize
			values := uint64(64<<20) / valueBytes
			zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, values-1)
			bases := make([]uint64, 1<<16)
			for i := range bases {
				bases[i] = zipf.Uint64() * 2654435761 % values * valueBytes
			}
			for _, pa := range bases {
				c.AccessRun(pa, shape.lines)
			}
			b.ResetTimer()
			for i, next := 0, 0; i < b.N; i++ {
				c.AccessRun(bases[next], shape.lines)
				if next++; next == len(bases) {
					next = 0
				}
			}
		})
	}
}

// BenchmarkControllerTracked exercises the miss-heavy hammering profile the
// security experiments run: activation tracking on, ping-ponging rows so
// every access is an activation feeding the per-bank row tables.
func BenchmarkControllerTracked(b *testing.B) {
	g := geometry.Default()
	m, err := addr.NewSkylakeMapper(g)
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(Config{Mapper: m, Timing: DDR4_2933(), MLPWindow: 10, TrackActivations: true})
	if err != nil {
		b.Fatal(err)
	}
	rowStride := uint64(g.RowGroupBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa := uint64(i%16) * rowStride
		if _, err := c.Do(Access{PA: pa}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControllerWithMitigation guards the miss path with a mitigation
// attached: every access is a row miss observed by a Silver Bullet
// instance, the heaviest observer in the framework (counter table probe
// plus possible safe-eviction scan).
func BenchmarkControllerWithMitigation(b *testing.B) {
	g := geometry.Default()
	m, err := addr.NewSkylakeMapper(g)
	if err != nil {
		b.Fatal(err)
	}
	sb := mitigation.NewSilverBullet(g.TotalBanks(), mitigation.DefaultSBTableSize,
		mitigation.DefaultSBThreshold, 0)
	c, err := New(Config{Mapper: m, Timing: DDR4_2933(), MLPWindow: 10, Mitigation: sb})
	if err != nil {
		b.Fatal(err)
	}
	rowStride := uint64(g.RowGroupBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa := uint64(i%16) * rowStride
		if _, err := c.Do(Access{PA: pa}); err != nil {
			b.Fatal(err)
		}
	}
}
