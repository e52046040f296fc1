package dram

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/geometry"
)

func BenchmarkActivateRowBatch(b *testing.B) {
	m, err := NewModule(tinyGeometry(), testProfile(), 0, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	bank := geometry.BankID{Socket: 0, DIMM: 0, Rank: 0, Bank: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ActivateRow(bank, 100+(i%64), 100, 0); err != nil {
			m.Refresh()
		}
	}
}

func BenchmarkWriteReadRow(b *testing.B) {
	m, err := NewModule(tinyGeometry(), testProfile(), 0, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	bank := geometry.BankID{Socket: 0, DIMM: 0, Rank: 0, Bank: 0}
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.WriteRow(bank, i%1000, 0, buf); err != nil {
			b.Fatal(err)
		}
		if err := m.ReadRow(bank, i%1000, 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMemory is the two-socket, 192-bank evaluation server: its 1.5 MiB
// stripe does not divide a 2 MiB page, so every page below spans two.
func benchMemory(b *testing.B) *Memory {
	b.Helper()
	g := geometry.Default()
	mapper, err := addr.NewSkylakeMapper(g)
	if err != nil {
		b.Fatal(err)
	}
	mem, err := NewMemory(g, mapper, []Profile{testProfile()}, nil)
	if err != nil {
		b.Fatal(err)
	}
	return mem
}

// benchPages is how many distinct 2 MiB pages a page benchmark cycles over:
// 24 MiB, which is also a whole number of stripes (16), so one scrub of the
// region releases every row in it. (A page-sized scrub releases only the
// stripes that lie wholly inside the page; on this geometry the others are
// zeroed in place and stay materialized.)
const (
	benchPages  = 12
	benchRegion = benchPages * geometry.PageSize2M
)

// What the pages of a page benchmark hold: every byte written, one cache
// line (a single live row, as a stamp on a fleet guest's page leaves), or
// nothing — the extremes migration, cross-host moves and teardown see: a
// guest's few stamped pages and the empty address space around them.
const (
	pagesDense = iota
	pagesOneRow
	pagesUntouched
)

// benchPage runs op over 2 MiB pages in the given state.
func benchPage(b *testing.B, state int, op func(mem *Memory, pa uint64, buf []byte) error) {
	mem := benchMemory(b)
	buf := make([]byte, geometry.PageSize2M)
	for i := range buf {
		buf[i] = byte(i) | 1
	}
	// Sparse pages are written and scrubbed once, so their rows are absent
	// again but the arena they came from has already grown.
	for p := 0; p < benchPages; p++ {
		if err := mem.WritePhys(uint64(p)*geometry.PageSize2M, buf); err != nil {
			b.Fatal(err)
		}
	}
	if state != pagesDense {
		if err := mem.ScrubPhys(0, benchRegion); err != nil {
			b.Fatal(err)
		}
	}
	if state == pagesOneRow {
		for p := 0; p < benchPages; p++ {
			if err := mem.WritePhys(uint64(p)*geometry.PageSize2M+4096, buf[:geometry.CacheLineSize]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.SetBytes(geometry.PageSize2M)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(mem, uint64(i%benchPages)*geometry.PageSize2M, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemoryPageRead(b *testing.B) {
	read := func(mem *Memory, pa uint64, buf []byte) error { return mem.ReadPhys(pa, buf) }
	b.Run("dense", func(b *testing.B) { benchPage(b, pagesDense, read) })
	b.Run("untouched", func(b *testing.B) { benchPage(b, pagesUntouched, read) })
}

// BenchmarkMemoryPageWrite/untouched pays for materializing the rows from
// the free list; dense overwrites rows in place. The region is scrubbed
// again off the clock after every page.
func BenchmarkMemoryPageWrite(b *testing.B) {
	b.Run("dense", func(b *testing.B) {
		benchPage(b, pagesDense, func(mem *Memory, pa uint64, buf []byte) error { return mem.WritePhys(pa, buf) })
	})
	b.Run("untouched", func(b *testing.B) {
		benchPage(b, pagesUntouched, func(mem *Memory, pa uint64, buf []byte) error {
			err := mem.WritePhys(pa, buf)
			b.StopTimer()
			if serr := mem.ScrubPhys(0, benchRegion); err == nil {
				err = serr
			}
			b.StartTimer()
			return err
		})
	})
}

// BenchmarkMemoryPageScrub/dense rewrites each page off the clock, so every
// timed scrub meets materialized rows.
func BenchmarkMemoryPageScrub(b *testing.B) {
	b.Run("dense", func(b *testing.B) {
		benchPage(b, pagesDense, func(mem *Memory, pa uint64, buf []byte) error {
			err := mem.ScrubPhys(pa, len(buf))
			b.StopTimer()
			if werr := mem.WritePhys(pa, buf); err == nil {
				err = werr
			}
			b.StartTimer()
			return err
		})
	})
	b.Run("untouched", func(b *testing.B) {
		benchPage(b, pagesUntouched, func(mem *Memory, pa uint64, buf []byte) error { return mem.ScrubPhys(pa, len(buf)) })
	})
}

// BenchmarkCopyPhys moves each 2 MiB page to a frame on the other socket that
// sits at another stripe offset (0.5 MiB against 0), as a migration's
// destination frames generally do. After the first lap the destination holds
// what the source holds, so dense overwrites rows in place, and one-row and
// empty find nothing stale to clear. An empty page is the census's case: no
// row on either side, nothing scanned.
func BenchmarkCopyPhys(b *testing.B) {
	g := geometry.Default()
	dstBase := uint64(g.SocketBytes()) + geometry.PageSize2M
	scratch := make([]byte, g.RowBytes)
	for _, bc := range []struct {
		name  string
		state int
	}{{"empty-2M", pagesUntouched}, {"one-row-2M", pagesOneRow}, {"dense-2M", pagesDense}} {
		b.Run(bc.name, func(b *testing.B) {
			benchPage(b, bc.state, func(mem *Memory, pa uint64, buf []byte) error {
				nonzero, err := mem.CopyPhys(dstBase+pa, mem, pa, len(buf), scratch)
				if err == nil && nonzero != (bc.state != pagesUntouched) {
					b.Fatalf("copy of a %s page reported nonzero = %v", bc.name, nonzero)
				}
				return err
			})
		})
	}
}

// BenchmarkMemoryLineReadWrite is the single-line shape: attack.FillRow and
// CheckRow move one 64-byte line per call, an EPT walk reads 8-byte
// entries. The stripe walker must not tax it.
func BenchmarkMemoryLineReadWrite(b *testing.B) {
	mem := benchMemory(b)
	var line [geometry.CacheLineSize]byte
	line[0] = 1
	const lines = 4096
	if err := mem.WritePhys(0, make([]byte, lines*geometry.CacheLineSize)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa := uint64(i%lines) * geometry.CacheLineSize
		if err := mem.WritePhys(pa, line[:]); err != nil {
			b.Fatal(err)
		}
		if err := mem.ReadPhys(pa+8, line[:8]); err != nil {
			b.Fatal(err)
		}
	}
}
