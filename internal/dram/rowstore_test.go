package dram

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/addr"
	"repro/internal/geometry"
)

// rowStoreTestGeometry is small enough to exercise slab growth, multi-rank
// bank indexing, and reuse without large allocations.
func rowStoreTestGeometry() geometry.Geometry {
	g := geometry.Default()
	g.Sockets = 1
	g.DIMMsPerSocket = 1
	g.RanksPerDIMM = 2
	g.BanksPerRank = 4
	g.RowsPerBank = 4096
	g.RowBytes = 2 * geometry.KiB
	g.RowsPerSubarray = 512
	return g
}

// slabCount is how many slabs the arena has cut.
func (a *rowArena) slabCount() int { return len(*a.slabs.Load()) }

// TestRowStoreGoldenAgainstMap drives several modules' indexes over one
// shared arena and a map per module through the same randomized
// alloc/write/release schedule, release-heavy so that slots keep moving
// between modules, and demands identical observable state at every step —
// and that no two live rows, on one module or on two, ever share a slot.
func TestRowStoreGoldenAgainstMap(t *testing.T) {
	g := rowStoreTestGeometry()
	arena := newRowArena(g)
	const modules = 3
	var idx [modules]*rowIndex
	for i := range idx {
		idx[i] = newRowIndex(g, arena, nil)
	}
	ref := map[[3]int][]byte{} // (module, bankIdx, mediaRow) -> row bytes
	live := func(mod int) (n int) {
		for k := range ref {
			if k[0] == mod {
				n++
			}
		}
		return n
	}
	noAliases := func(step int) {
		owner := map[*byte][3]int{}
		for k := range ref {
			p := &idx[k[0]].row(k[1], k[2])[0]
			if prev, dup := owner[p]; dup {
				t.Fatalf("step %d: rows %v and %v share a slot", step, prev, k)
			}
			owner[p] = k
		}
	}

	rng := rand.New(rand.NewSource(7))
	banks := g.BanksPerDIMM()
	// Rows come from a few leaves per bank, so the schedule revisits rows
	// it released and leaves it already allocated.
	const hotRows = 3 * rowLeafRows
	for step := 0; step < 30000; step++ {
		mod := rng.Intn(modules)
		s := idx[mod]
		bankIdx := rng.Intn(banks)
		row := rng.Intn(hotRows)
		if rng.Intn(8) == 0 {
			row = rng.Intn(g.RowsPerBank)
		}
		key := [3]int{mod, bankIdx, row}
		switch op := rng.Intn(10); {
		case op < 4: // write some bytes (materializes)
			got := s.rowAlloc(bankIdx, row, regions{})
			want := ref[key]
			if want == nil {
				if !AllZero(got) {
					t.Fatalf("step %d: fresh row %v is not zero", step, key)
				}
				want = make([]byte, g.RowBytes)
				ref[key] = want
			}
			off := rng.Intn(g.RowBytes)
			b := byte(rng.Intn(256))
			got[off] = b
			want[off] = b
		case op < 7: // read
			got := s.row(bankIdx, row)
			want := ref[key]
			if (got == nil) != (want == nil) {
				t.Fatalf("step %d: presence mismatch for %v: arena=%v map=%v",
					step, key, got != nil, want != nil)
			}
			if got != nil && !bytes.Equal(got, want) {
				t.Fatalf("step %d: content mismatch for %v", step, key)
			}
		default: // release (full-row scrub)
			s.release(bankIdx, row, regions{})
			delete(ref, key)
		}
		if s.live != live(mod) {
			t.Fatalf("step %d: module %d live count %d, map has %d", step, mod, s.live, live(mod))
		}
		if step%500 == 0 {
			noAliases(step)
		}
	}

	// Final sweep: every map entry must match its module's index, and every
	// absent entry must be absent.
	noAliases(-1)
	for mod, s := range idx {
		for bankIdx := 0; bankIdx < banks; bankIdx++ {
			for row := 0; row < g.RowsPerBank; row++ {
				got := s.row(bankIdx, row)
				want := ref[[3]int{mod, bankIdx, row}]
				if (got == nil) != (want == nil) {
					t.Fatalf("final: presence mismatch at module %d bank %d row %d", mod, bankIdx, row)
				}
				if got != nil && !bytes.Equal(got, want) {
					t.Fatalf("final: content mismatch at module %d bank %d row %d", mod, bankIdx, row)
				}
			}
		}
	}
}

// TestRowStoreReuseZeroes checks that a released slot comes back zeroed (the
// scrub guarantee: a recycled slot must not leak the previous tenant's bytes)
// — on another module of the same arena too — and that steady-state churn
// recycles slots instead of growing the arena.
func TestRowStoreReuseZeroes(t *testing.T) {
	g := rowStoreTestGeometry()
	arena := newRowArena(g)
	a, b := newRowIndex(g, arena, nil), newRowIndex(g, arena, nil)

	r := a.rowAlloc(0, 10, regions{})
	for i := range r {
		r[i] = 0xAB
	}
	a.release(0, 10, regions{})
	slabs := arena.slabCount()

	// Reallocation (any row, any module) must reuse the freed slot and
	// observe zeros.
	r2 := b.rowAlloc(3, 99, regions{})
	if !AllZero(r2) {
		t.Fatal("recycled slot is not zero")
	}
	if arena.slabCount() != slabs {
		t.Fatalf("churn grew the arena: %d -> %d slabs", slabs, arena.slabCount())
	}
	if arena.next != 1 {
		t.Fatalf("allocated fresh slot instead of recycling: next=%d", arena.next)
	}
}

// TestRowStoreModuleScrubReleases checks the Module-level contract: a
// full-row scrub releases backing storage, and releases are observable via
// the index's live count.
func TestRowStoreModuleScrubReleases(t *testing.T) {
	g := rowStoreTestGeometry()
	m, err := NewModule(g, ProfileF(), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := geometry.BankID{Socket: 0, DIMM: 0, Rank: 1, Bank: 2}
	data := bytes.Repeat([]byte{0x5A}, 64)
	if err := m.WriteRow(b, 7, 128, data); err != nil {
		t.Fatal(err)
	}
	if m.rows.live != 1 {
		t.Fatalf("after write: live=%d, want 1", m.rows.live)
	}
	if err := m.ScrubRow(b, 7, 0, g.RowBytes); err != nil {
		t.Fatal(err)
	}
	if m.rows.live != 0 {
		t.Fatalf("after full scrub: live=%d, want 0", m.rows.live)
	}
	buf := make([]byte, 64)
	if err := m.ReadRow(b, 7, 128, buf); err != nil {
		t.Fatal(err)
	}
	if !AllZero(buf) {
		t.Fatal("scrubbed row does not read as zero")
	}
}

// TestRowArenaConcurrentWritersAndScrubbers runs writers that fill whole
// stripes and scrub them again (a whole-stripe scrub releases its rows to
// the shared arena) side by side, on the two DIMMs of one socket and on both
// sockets. Each worker owns its stripes, so it must read back exactly what
// it wrote and then zeros; a slot handed to two rows at once, or recycled
// unzeroed, breaks that, and a missing arena lock is a race.
//
// In the "reuse" cases each worker holds one stripe at a time, so live rows
// never exceed one slab and the arena must end with one: released rows are
// reused across DIMMs and sockets rather than cut anew. In the "grow" cases
// each worker holds several stripes and reads all of them back after every
// write, on a fresh Memory each pass, so one module appends and publishes a
// slab while the others look rows up without a lock: a slab table that is
// not published atomically is a race. It is the two-socket case that catches
// that: on one socket every stripe spans both DIMMs, so each access takes
// both modules' rowsMu and the workers' lookups are ordered after any growth.
func TestRowArenaConcurrentWritersAndScrubbers(t *testing.T) {
	g := smallServer()
	mapper, err := addr.NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	stripe := int(g.RowGroupBytes())
	const workers = 4
	for _, tc := range []struct {
		name                 string
		sockets              int
		held, rounds, passes int
	}{
		{"reuse/one-socket", 1, 1, 200, 1},
		{"reuse/two-sockets", 2, 1, 200, 1},
		{"grow/one-socket", 1, 6, 3, 8},
		{"grow/two-sockets", 2, 6, 3, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for pass := 0; pass < tc.passes && !t.Failed(); pass++ {
				mem, err := NewMemory(g, mapper, []Profile{testProfile()}, nil)
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						base := uint64(w%tc.sockets)*uint64(g.SocketBytes()) + uint64(w*tc.held)*uint64(stripe)
						pa := func(k int) uint64 { return base + uint64(k)*uint64(stripe) }
						fill := func(buf []byte, r, k int) {
							for i := range buf {
								buf[i] = byte(w<<5 + r*tc.held + k + i>>lineShift)
							}
						}
						data, got := make([]byte, stripe), make([]byte, stripe)
						for r := 0; r < tc.rounds && !t.Failed(); r++ {
							for k := 0; k < tc.held; k++ {
								fill(data, r, k)
								if err := mem.WritePhys(pa(k), data); err != nil {
									t.Error(err)
									return
								}
								for j := 0; j <= k; j++ {
									fill(data, r, j)
									if err := mem.ReadPhys(pa(j), got); err != nil || !bytes.Equal(got, data) {
										t.Errorf("worker %d round %d: stripe %d does not read back as written (err %v)", w, r, j, err)
										return
									}
								}
							}
							for k := 0; k < tc.held; k++ {
								if err := mem.ScrubPhys(pa(k), stripe); err != nil {
									t.Error(err)
									return
								}
								if err := mem.ReadPhys(pa(k), got); err != nil || !AllZero(got) {
									t.Errorf("worker %d round %d: scrubbed stripe %d is not zero (err %v)", w, r, k, err)
									return
								}
							}
						}
					}(w)
				}
				wg.Wait()
				if n := mem.LiveRows(); n != 0 {
					t.Errorf("%d rows live after every stripe was scrubbed", n)
				}
				maxLive := workers * tc.held * stripe / g.RowBytes
				slabs := mem.modules[0][0].rows.arena.slabCount()
				if perSlab := 1 << mem.modules[0][0].rows.arena.slabShift; tc.held == 1 && slabs != 1 {
					t.Errorf("arena cut %d slabs for at most %d live rows, want 1", slabs, maxLive)
				} else if tc.held > 1 && (slabs < 2 || slabs > (maxLive+perSlab-1)/perSlab) {
					t.Errorf("arena cut %d slabs for at most %d live rows of %d per slab, want 2..%d", slabs, maxLive, perSlab, (maxLive+perSlab-1)/perSlab)
				}
			}
		})
	}
}

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRowStoreFootprintAtPaperScale pins what the paper's evaluation server
// (geometry.Default: 2 sockets x 6 DIMMs, 1 GiB banks) pays for rows: an
// empty Memory costs nothing sized by the row count, the first 4 KiB write
// (an EPT zero page) a slab and the index entries of the banks it touches,
// and a row on every DIMM one slab in all, not one per DIMM.
func TestRowStoreFootprintAtPaperScale(t *testing.T) {
	g := geometry.Default()
	mapper, err := addr.NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	var mem *Memory
	if n := allocated(func() { mem, err = NewMemory(g, mapper, []Profile{testProfile()}, nil) }); err != nil {
		t.Fatal(err)
	} else if n > geometry.MiB {
		t.Errorf("NewMemory allocated %d bytes, want <= 1 MiB", n)
	}
	page := bytes.Repeat([]byte{0x3C}, 4*geometry.KiB)
	if n := allocated(func() { err = mem.WritePhys(0, page) }); err != nil {
		t.Fatal(err)
	} else if n > 3*geometry.MiB {
		t.Errorf("the first 4 KiB write allocated %d bytes, want <= 3 MiB", n)
	}

	bank := geometry.BankID{Rank: 1, Bank: 3}
	if n := allocated(func() {
		for s := 0; s < g.Sockets && err == nil; s++ {
			for d := 0; d < g.DIMMsPerSocket && err == nil; d++ {
				bank.Socket, bank.DIMM = s, d
				err = mem.Module(s, d).WriteRow(bank, 1000, 0, page[:64])
			}
		}
	}); err != nil {
		t.Fatal(err)
	} else if n > geometry.MiB {
		t.Errorf("a row on each of %d DIMMs allocated %d bytes, want <= 1 MiB (no slab per DIMM)", g.Sockets*g.DIMMsPerSocket, n)
	}
	if n := mem.modules[0][0].rows.arena.slabCount(); n != 1 {
		t.Errorf("%d live rows sit in %d slabs, want 1", mem.LiveRows(), n)
	}
}

// BenchmarkRowStoreChurn measures the VM-churn pattern the arena exists for:
// write a row, scrub it, repeat — steady state must not allocate.
func BenchmarkRowStoreChurn(b *testing.B) {
	g := rowStoreTestGeometry()
	m, err := NewModule(g, ProfileF(), 0, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	bank := geometry.BankID{Socket: 0, DIMM: 0, Rank: 0, Bank: 0}
	data := bytes.Repeat([]byte{0xC3}, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := i % g.RowsPerBank
		if err := m.WriteRow(bank, row, 0, data); err != nil {
			b.Fatal(err)
		}
		if err := m.ScrubRow(bank, row, 0, g.RowBytes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemoryFirstTouch builds a fresh Memory and writes one 4 KiB page
// on each socket: B/op is what a boot's first touch of its rows costs the
// row store, on the fleet lab box and on the paper's evaluation server.
func BenchmarkMemoryFirstTouch(b *testing.B) {
	lab := geometry.Geometry{
		Sockets: 2, CoresPerSocket: 4, DIMMsPerSocket: 1, RanksPerDIMM: 2,
		BanksPerRank: 8, RowsPerBank: 4096, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: 512,
	}
	for _, tc := range []struct {
		name string
		g    geometry.Geometry
	}{{"lab", lab}, {"default", geometry.Default()}} {
		b.Run(tc.name, func(b *testing.B) {
			mapper, err := addr.NewSkylakeMapper(tc.g)
			if err != nil {
				b.Fatal(err)
			}
			page := bytes.Repeat([]byte{0x3C}, 4*geometry.KiB)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mem, err := NewMemory(tc.g, mapper, []Profile{testProfile()}, nil)
				if err != nil {
					b.Fatal(err)
				}
				for s := 0; s < tc.g.Sockets; s++ {
					if err := mem.WritePhys(uint64(s)*uint64(tc.g.SocketBytes()), page); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
