package dram

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/geometry"
)

// iterRef is the per-cache-line walk Memory ran before the stripe walker
// replaced it, kept verbatim as the oracle: one Decode, one moduleFor and
// one locked Module row call per 64-byte piece.
func (m *Memory) iterRef(pa uint64, n int, fn func(mod *Module, ma geometry.MediaAddr, off, n int) error) error {
	off := 0
	for off < n {
		cur := pa + uint64(off)
		chunk := geometry.CacheLineSize - int(cur%geometry.CacheLineSize)
		if chunk > n-off {
			chunk = n - off
		}
		ma, err := m.mapper.Decode(cur)
		if err != nil {
			return err
		}
		mod, err := m.moduleFor(ma.Bank)
		if err != nil {
			return err
		}
		if err := fn(mod, ma, off, chunk); err != nil {
			return err
		}
		off += chunk
	}
	return nil
}

func (m *Memory) writeRef(pa uint64, data []byte) error {
	return m.iterRef(pa, len(data), func(mod *Module, ma geometry.MediaAddr, off, n int) error {
		return mod.WriteRow(ma.Bank, ma.Row, ma.Col, data[off:off+n])
	})
}

func (m *Memory) readRef(pa uint64, buf []byte) error {
	return m.iterRef(pa, len(buf), func(mod *Module, ma geometry.MediaAddr, off, n int) error {
		return mod.ReadRow(ma.Bank, ma.Row, ma.Col, buf[off:off+n])
	})
}

// ScrubRow is scrubRef's per-row step: it zeroes a row segment without
// materializing untouched storage (a row never written already reads as
// zeros), and releases the backing only when the one call covers the whole
// row (col 0, RowBytes long); a shorter segment is zeroed in place. Memory's
// own scrub, ScrubPhys, makes the release decision per stripe — under an
// interleaved mapping no page is a whole row of any one bank.
func (m *Module) ScrubRow(b geometry.BankID, mediaRow, col, n int) error {
	if !m.owns(b) || mediaRow < 0 || mediaRow >= m.g.RowsPerBank {
		return fmt.Errorf("dram: scrub target %v row %d invalid", b, mediaRow)
	}
	if col < 0 || n < 0 || col+n > m.g.RowBytes {
		return fmt.Errorf("dram: scrub [%d,%d) outside row", col, col+n)
	}
	m.rowsMu.Lock()
	bankIdx := m.rows.bankIndex(b.Rank, b.Bank)
	if r := m.rows.row(bankIdx, mediaRow); r != nil {
		if col == 0 && n == m.g.RowBytes {
			m.rows.release(bankIdx, mediaRow, m.rows.census.locate(b, mediaRow))
		} else {
			for i := col; i < col+n; i++ {
				r[i] = 0
			}
		}
	}
	m.rowsMu.Unlock()
	return nil
}

func (m *Memory) scrubRef(pa uint64, n int) error {
	return m.iterRef(pa, n, func(mod *Module, ma geometry.MediaAddr, off, n int) error {
		return mod.ScrubRow(ma.Bank, ma.Row, ma.Col, n)
	})
}

// isZeroRef looks at every byte, a cache line at a time, in address order,
// and stops at the first that is not zero — so a range that runs off the end
// of memory is an error only if it is zero up to there.
func (m *Memory) isZeroRef(pa uint64, n int) (bool, error) {
	errData := errors.New("nonzero")
	var line [geometry.CacheLineSize]byte
	err := m.iterRef(pa, n, func(mod *Module, ma geometry.MediaAddr, off, n int) error {
		if err := mod.ReadRow(ma.Bank, ma.Row, ma.Col, line[:n]); err != nil {
			return err
		}
		for _, c := range line[:n] {
			if c != 0 {
				return errData
			}
		}
		return nil
	})
	if err == errData {
		return false, nil
	}
	return err == nil, err
}

// copyRef is the body core.copyFrame had before CopyPhys replaced it — test
// the source for zero, read it into a bounce buffer, write the buffer to the
// destination — over the per-line reference paths, with the write made
// unconditional (copyFrame's always), which is what "the destination equals
// the source afterwards" needs. len(buf) is the length of the copy.
func copyRef(dst *Memory, dstPA uint64, src *Memory, srcPA uint64, buf []byte) (nonzero bool, err error) {
	zero, err := src.isZeroRef(srcPA, len(buf))
	if err != nil {
		return false, err
	}
	if err := src.readRef(srcPA, buf); err != nil {
		return false, err
	}
	if err := dst.writeRef(dstPA, buf); err != nil {
		return false, err
	}
	return !zero, nil
}

// smallServer is two sockets of two DIMMs: a 128 KiB stripe that divides a
// 2 MiB page, and DIMM and socket boundaries to cross.
func smallServer() geometry.Geometry {
	return geometry.Geometry{
		Sockets: 2, CoresPerSocket: 4, DIMMsPerSocket: 2, RanksPerDIMM: 2,
		BanksPerRank: 4, RowsPerBank: 1024, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: 512,
	}
}

// oracleCase is one mapping the differential test runs over.
type oracleCase struct {
	name   string
	g      geometry.Geometry
	mapper func(geometry.Geometry) (addr.Mapper, error)
}

func oracleCases() []oracleCase {
	skylake := func(g geometry.Geometry) (addr.Mapper, error) { return addr.NewMapper(g, addr.KindSkylake) }
	linear := func(g geometry.Geometry) (addr.Mapper, error) { return addr.NewMapper(g, addr.KindLinear) }
	partitioned := func(parts int) func(geometry.Geometry) (addr.Mapper, error) {
		return func(g geometry.Geometry) (addr.Mapper, error) { return addr.NewPartitionedMapper(g, parts) }
	}
	small := smallServer()
	// 1024 banks per socket over 16 DIMMs, 1 KiB rows: more banks than any
	// fixed-size scratch array would have held, and many locks per stripe.
	wide := geometry.Geometry{
		Sockets: 2, CoresPerSocket: 4, DIMMsPerSocket: 16, RanksPerDIMM: 4,
		BanksPerRank: 16, RowsPerBank: 1024, RowBytes: geometry.KiB,
		RowsPerSubarray: 512,
	}
	// 7.8125 MiB banks, three to a DIMM: memory (93.75 MiB) ends inside a
	// 2 MiB region, and so do the DIMMs and sockets.
	ragged := geometry.Geometry{
		Sockets: 2, CoresPerSocket: 4, DIMMsPerSocket: 2, RanksPerDIMM: 1,
		BanksPerRank: 3, RowsPerBank: 1000, RowBytes: 8 * geometry.KiB,
		RowsPerSubarray: 500,
	}
	return []oracleCase{
		{"skylake-small", small, skylake},
		{"skylake-192bank", geometry.Default(), skylake}, // 1.5 MiB stripe: does not divide 2 MiB
		{"skylake-wide", wide, skylake},
		{"partitioned-2", small, partitioned(2)},
		{"partitioned-4-192bank", geometry.Default(), partitioned(4)},
		{"linear-small", small, linear},
		{"linear-wide", wide, linear},
		{"linear-ragged", ragged, linear},
	}
}

// TestBulkPathMatchesPerLineReference drives the stripe walker and the
// per-line reference with the same random operations on two memories and
// demands the same bytes, the same errors and the same zero answers (a read
// scanned with AllZero, and at the end the copy's nonzero result). After
// every operation both memories' census must match a recount of the regions
// it could have changed, and at the end a recount of all of memory: the
// reference writes through Module.WriteRow, the walker through its stripes.
func TestBulkPathMatchesPerLineReference(t *testing.T) {
	for _, tc := range oracleCases() {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Memory {
				mapper, err := tc.mapper(tc.g)
				if err != nil {
					t.Fatal(err)
				}
				mem, err := NewMemory(tc.g, mapper, []Profile{testProfile()}, nil)
				if err != nil {
					t.Fatal(err)
				}
				return mem
			}
			got, ref := build(), build()
			total := uint64(tc.g.TotalBytes())
			st, err := got.Mapper().Stripe(0)
			if err != nil {
				t.Fatal(err)
			}
			stripe := uint64(st.Len)

			// Operations cluster around a few anchors so they overlap
			// each other (and the memory they materialize stays small):
			// the start, a stripe edge, a 2 MiB page edge, the socket
			// boundary, and the end of memory.
			anchors := []uint64{0, 5 * stripe, 3 * geometry.PageSize2M, uint64(tc.g.SocketBytes()), total}
			span := max(2*stripe, geometry.PageSize2M) + 4096 // longest operation
			rng := rand.New(rand.NewSource(17))
			pick := func() (pa uint64, n int) {
				a := anchors[rng.Intn(len(anchors))]
				pa = a - min(a, span) + uint64(rng.Int63n(int64(2*span)))
				switch rng.Intn(12) {
				case 0:
					n = 0
				case 1, 2, 3, 4, 5:
					n = 1 + rng.Intn(200) // sub-line and a few lines, unaligned
				case 6, 7:
					n = 64 << rng.Intn(7) // line-multiples
					pa &^= 63
				case 8:
					n = geometry.PageSize2M
					pa &^= geometry.PageSize2M - 1
				case 9: // exactly one whole stripe
					n = int(stripe)
					pa -= pa % stripe
				default:
					n = rng.Intn(int(span)) // unaligned, stripe-crossing
				}
				return pa, n
			}
			sameErr := func(op string, pa uint64, n int, a, b error) {
				t.Helper()
				if (a == nil) != (b == nil) || (a != nil && a.Error() != b.Error()) {
					t.Fatalf("%s(%#x, %d): walker err %v, reference err %v", op, pa, n, a, b)
				}
			}
			bufA, bufB := make([]byte, span), make([]byte, span)
			for i := 0; i < 240; i++ {
				pa, n := pick()
				switch op := rng.Intn(10); {
				case op < 4:
					data := bufA[:n]
					rng.Read(data)
					if rng.Intn(4) == 0 {
						clear(data) // stores of zeros must not read as data
					}
					sameErr("write", pa, n, got.WritePhys(pa, data), ref.writeRef(pa, data))
				case op < 6:
					sameErr("scrub", pa, n, got.ScrubPhys(pa, n), ref.scrubRef(pa, n))
				case op < 8:
					a, b := bufA[:n], bufB[:n]
					rng.Read(a) // stale contents must be overwritten, zeros included
					sameErr("read", pa, n, got.ReadPhys(pa, a), ref.readRef(pa, b))
					if pa+uint64(n) <= total && !bytes.Equal(a, b) {
						t.Fatalf("read(%#x, %d): walker and reference disagree", pa, n)
					}
				default:
					// The reference stops at the first nonzero byte, so the
					// two agree on errors only for ranges inside memory.
					a := bufA[:n]
					ea := got.ReadPhys(pa, a)
					zb, eb := ref.isZeroRef(pa, n)
					if pa+uint64(n) <= total {
						sameErr("iszero", pa, n, ea, eb)
						if za := AllZero(a); za != zb {
							t.Fatalf("read(%#x, %d) is all zero: %v, reference %v", pa, n, za, zb)
						}
					}
				}
				for _, mem := range []*Memory{got, ref} {
					if err := censusCheck(mem, around(mem, pa, n)); err != nil {
						t.Fatalf("after op %d at %#x+%d: %v", i, pa, n, err)
					}
				}
			}
			for _, mem := range []*Memory{got, ref} {
				if err := censusCheck(mem, everything(mem)); err != nil {
					t.Fatal(err)
				}
			}
			// Byte-identical: each memory, read by each path, over every
			// window an operation could have touched.
			for _, a := range anchors {
				lo := a - min(a, 2*span)
				n := int(min(4*span, total-lo))
				if n == 0 {
					continue
				}
				var views [4][]byte
				for i, read := range []func(uint64, []byte) error{got.ReadPhys, got.readRef, ref.ReadPhys, ref.readRef} {
					views[i] = make([]byte, n)
					if err := read(lo, views[i]); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(views[i], views[0]) {
						t.Fatalf("window %#x+%d: view %d differs from the walker's own read", lo, n, i)
					}
				}
				// Copied out to a fresh memory, the window reports data
				// exactly when its bytes hold some.
				nonzero, err := build().CopyPhys(lo, got, lo, n, make([]byte, tc.g.RowBytes))
				if want := !AllZero(views[0]); err != nil || nonzero != want {
					t.Fatalf("CopyPhys(%#x, %d) = %v, %v over a window whose bytes say %v", lo, n, nonzero, err, want)
				}
			}
		})
	}
}

// TestRowAccessMatchesPerLineReference holds the strided row accessor to the
// per-line reference on every mapping of the bulk-path oracle. The stride it
// reports is checked against Decode — the next line up that lands in the
// same bank — and a row write or read against one reference call per line at
// that stride: the same bytes (a stale buffer over an absent row comes back
// zero), the same rows materialized, and an error exactly when the address is
// not line-aligned or the run leaves the row.
func TestRowAccessMatchesPerLineReference(t *testing.T) {
	for _, tc := range oracleCases() {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Memory {
				mapper, err := tc.mapper(tc.g)
				if err != nil {
					t.Fatal(err)
				}
				mem, err := NewMemory(tc.g, mapper, []Profile{testProfile()}, nil)
				if err != nil {
					t.Fatal(err)
				}
				return mem
			}
			got, ref := build(), build()
			total := uint64(tc.g.TotalBytes())
			st, err := got.Mapper().Stripe(0)
			if err != nil {
				t.Fatal(err)
			}
			stripe := uint64(st.Len)
			anchors := []uint64{0, 5 * stripe, 3 * geometry.PageSize2M, uint64(tc.g.SocketBytes()), total - stripe}
			rng := rand.New(rand.NewSource(23))
			bufA, bufB := make([]byte, 2*tc.g.RowBytes), make([]byte, 2*tc.g.RowBytes)
			for i := 0; i < 300; i++ {
				pa := anchors[rng.Intn(len(anchors))] + uint64(rng.Int63n(int64(stripe)))
				if rng.Intn(8) != 0 {
					pa &^= geometry.CacheLineSize - 1
				}
				n := 1 + rng.Intn(tc.g.RowBytes)
				switch rng.Intn(4) {
				case 0:
					n = tc.g.RowBytes // a whole row, when pa is its first line
				case 1:
					n = (n + 63) &^ 63
				}
				if rng.Intn(3) == 0 {
					pa -= pa % stripe // the first line of bank 0's row
					pa += uint64(rng.Intn(st.Banks)) * geometry.CacheLineSize
				}
				ma, err := got.Mapper().Decode(pa)
				if err != nil {
					t.Fatal(err)
				}
				wantErr := pa%geometry.CacheLineSize != 0 || ma.Col+n > tc.g.RowBytes
				stride, err := got.RowStride(pa)
				if err != nil {
					t.Fatal(err)
				}
				if base := pa &^ (geometry.CacheLineSize - 1); ma.Col+geometry.CacheLineSize < tc.g.RowBytes {
					for next := base + geometry.CacheLineSize; next <= base+stride; next += geometry.CacheLineSize {
						nb, err := got.Mapper().Decode(next)
						if err != nil {
							t.Fatal(err)
						}
						if (nb.Bank == ma.Bank) != (next == base+stride) {
							t.Fatalf("RowStride(%#x) = %d, Decode puts the line %d up in bank %v of %v", pa, stride, next-base, nb.Bank, ma.Bank)
						}
						if next == base+stride && (nb.Row != ma.Row || nb.Col/geometry.CacheLineSize != ma.Col/geometry.CacheLineSize+1) {
							t.Fatalf("RowStride(%#x) = %d leads from row %d column %d to row %d column %d", pa, stride, ma.Row, ma.Col, nb.Row, nb.Col)
						}
					}
				}
				perLine := func(buf []byte, op func(pa uint64, b []byte) error) {
					for off := 0; off < len(buf); off += geometry.CacheLineSize {
						if err := op(pa+uint64(off/geometry.CacheLineSize)*stride, buf[off:min(off+geometry.CacheLineSize, len(buf))]); err != nil {
							t.Fatal(err)
						}
					}
				}
				if rng.Intn(2) == 0 {
					data := bufA[:n]
					rng.Read(data)
					err := got.WriteRowPhys(pa, data)
					if (err != nil) != wantErr {
						t.Fatalf("WriteRowPhys(%#x, %d) at column %d: err %v", pa, n, ma.Col, err)
					}
					if err == nil {
						perLine(data, ref.writeRef)
					}
				} else {
					a, b := bufA[:n], bufB[:n]
					rng.Read(a) // stale contents must be overwritten, zeros included
					gotStride, err := got.ReadRowPhys(pa, a)
					if (err != nil) != wantErr {
						t.Fatalf("ReadRowPhys(%#x, %d) at column %d: err %v", pa, n, ma.Col, err)
					}
					if err == nil {
						perLine(b, ref.readRef)
						if !bytes.Equal(a, b) || gotStride != stride {
							t.Fatalf("ReadRowPhys(%#x, %d): bytes or stride %d differ from the per-line reads at stride %d", pa, n, gotStride, stride)
						}
					}
				}
				if l, rl := got.LiveRows(), ref.LiveRows(); l != rl {
					t.Fatalf("after op %d at %#x: %d live rows, the reference has %d", i, pa, l, rl)
				}
			}
			for _, a := range anchors {
				n := int(min(2*stripe, total-a))
				va, vb := make([]byte, n), make([]byte, n)
				if err := got.ReadPhys(a, va); err != nil {
					t.Fatal(err)
				}
				if err := ref.readRef(a, vb); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(va, vb) {
					t.Fatalf("window %#x+%d differs from the reference", a, n)
				}
			}
		})
	}
}

// badStripeMapper answers Stripe with whatever the test planted: the
// walker's once-per-stripe checks are the only thing between a wrong
// mapping and an out-of-bounds row access.
type badStripeMapper struct {
	addr.Mapper
	st addr.Stripe
}

func (b badStripeMapper) Stripe(uint64) (addr.Stripe, error) { return b.st, nil }

func TestWalkerRejectsStripesOutsideGeometry(t *testing.T) {
	g := tinyGeometry()
	inner, err := addr.NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	good, err := inner.Stripe(0)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(*addr.Stripe)) addr.Stripe { st := good; f(&st); return st }
	sound, err := NewMemory(g, inner, []Profile{testProfile()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sound.WritePhys(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, g.RowBytes)
	for name, st := range map[string]addr.Stripe{
		"socket past the last":   mutate(func(s *addr.Stripe) { s.Socket = g.Sockets }),
		"negative socket":        mutate(func(s *addr.Stripe) { s.Socket = -1 }),
		"banks past the socket":  mutate(func(s *addr.Stripe) { s.Bank0 = 1 }),
		"negative first bank":    mutate(func(s *addr.Stripe) { s.Bank0 = -1; s.Banks++ }),
		"no banks":               mutate(func(s *addr.Stripe) { s.Banks = 0; s.Len = 0 }),
		"row past the bank":      mutate(func(s *addr.Stripe) { s.Row = g.RowsPerBank }),
		"negative row":           mutate(func(s *addr.Stripe) { s.Row = -1 }),
		"longer than its rows":   mutate(func(s *addr.Stripe) { s.Len += geometry.CacheLineSize }),
		"offset past the stripe": mutate(func(s *addr.Stripe) { s.Off = s.Len }),
		"negative offset":        mutate(func(s *addr.Stripe) { s.Off = -1 }),
	} {
		mem, err := NewMemory(g, badStripeMapper{inner, st}, []Profile{testProfile()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 128)
		for op, err := range map[string]error{
			"write": mem.WritePhys(0, buf),
			"read":  mem.ReadPhys(0, buf),
			"scrub": mem.ScrubPhys(0, len(buf)),
			"copy from": func() error {
				_, err := sound.CopyPhys(0, mem, 0, len(buf), scratch)
				return err
			}(),
			"copy to": func() error {
				_, err := mem.CopyPhys(0, sound, 0, len(buf), scratch)
				return err
			}(),
		} {
			if err == nil {
				t.Errorf("%s: %s accepted stripe %+v", name, op, st)
			}
		}
		if live := mem.Module(0, 0).rows.live; live != 0 {
			t.Errorf("%s: %d rows materialized by a rejected access", name, live)
		}
	}
}

// What follows is the disturbance path Module ran before the chunked dense
// accumulators replaced it — ActivateRow's accounting, disturbNeighbours,
// accrue, refreshNeighbourhood and Refresh — kept verbatim as the oracle of
// TestDisturbanceMatchesReference and FuzzDisturbanceMatchesReference: a
// subarray divide per neighbour, a table probe per accrual. The one
// substitution is the table itself: rowcount.Value lost float64 with this,
// its last non-test caller, so the bodies run over refTable, a map with the
// three methods they used. Everything the two paths share — internalTarget,
// commitFlips, observe, the defense chain — is the module's own.

// refTable is the map-backed stand-in for rowcount.Table[float64].
type refTable struct{ m map[int]float64 }

func (t *refTable) Delete(row int) { delete(t.m, row) }
func (t *refTable) Reset()         { clear(t.m) }

func (t *refTable) Add(row int, delta float64) float64 {
	if t.m == nil {
		t.m = map[int]float64{}
	}
	t.m[row] += delta
	return t.m[row]
}

// refDisturb is what bankState.disturb held, for every bank of one module,
// keyed by the bank's dense index.
type refDisturb map[int]*[2]refTable

func (rd refDisturb) of(bs *bankState) *[2]refTable {
	if rd[bs.idx] == nil {
		rd[bs.idx] = new([2]refTable)
	}
	return rd[bs.idx]
}

// newRefModule builds a module whose defense chain refreshes through the
// retired refreshNeighbourhood.
func newRefModule(g geometry.Geometry, prof Profile, repairs *addr.RepairTable) (*Module, refDisturb, error) {
	m, err := NewModule(g, prof, 0, 0, repairs)
	if err != nil {
		return nil, nil, err
	}
	rd := refDisturb{}
	m.refreshFn = func(bankIdx, mediaRow int) { m.refRefreshNeighbourhood(rd, bankIdx, mediaRow) }
	return m, rd, nil
}

func (m *Module) refActivateRow(rd refDisturb, b geometry.BankID, mediaRow, count int, openNs int64) error {
	if !m.owns(b) {
		return fmt.Errorf("dram: bank %v not on module s%d.d%d", b, m.socket, m.dimm)
	}
	if mediaRow < 0 || mediaRow >= m.g.RowsPerBank {
		return fmt.Errorf("dram: row %d out of range", mediaRow)
	}
	if count <= 0 {
		return fmt.Errorf("dram: activation count must be positive, got %d", count)
	}
	m.actMu.Lock()
	defer m.actMu.Unlock()
	bs := m.bank(b)
	if bs.acts+count > m.prof.MaxActsPerWindow {
		return fmt.Errorf("dram: bank %v over activation budget (%d+%d > %d per window)",
			b, bs.acts, count, m.prof.MaxActsPerWindow)
	}
	bs.acts += count

	// Weighted disturbance per activation, including RowPress dwell.
	eff := float64(count) * (1 + m.prof.RowPressFactor*float64(openNs)/1000.0)

	for _, side := range [...]addr.Side{addr.SideA, addr.SideB} {
		virt, anchor := m.internalTarget(bs, mediaRow, side)
		// Activation refreshes the aggressor row's own charge.
		rd.of(bs)[side].Delete(virt)
		m.refDisturbNeighbours(rd, bs, side, virt, anchor, eff, mediaRow)
	}

	m.observe(bs, mediaRow, count, openNs)
	return nil
}

func (m *Module) refDisturbNeighbours(rd refDisturb, bs *bankState, side addr.Side, aggVirt, anchor int, eff float64, aggMediaRow int) {
	sub := m.g.RowsPerSubarray
	blast := m.prof.BlastRadius
	aggSub := anchor / sub
	for off := -blast; off <= blast; off++ {
		pos := anchor + off
		if pos < 0 || pos >= m.g.RowsPerBank || pos/sub != aggSub {
			continue // outside bank or electrically isolated (§2.5)
		}
		d := off
		if d < 0 {
			d = -d
		}
		if d == 0 {
			d = 1 // a spare sits adjacent to its anchor position
		}
		w := m.prof.DistanceWeights[d-1]
		if pos != anchor || aggVirt >= m.g.RowsPerBank {
			// Normal row victim at pos (skip the aggressor itself,
			// unless the aggressor is a spare overlaying pos).
			if pos != aggVirt {
				m.refAccrue(rd, bs, side, pos, w*eff, aggMediaRow)
			}
		}
		// Spare victims anchored here.
		if bs.hasSpares {
			for _, sp := range bs.sparesAtAnchor[pos] {
				if sp.virt != aggVirt {
					m.refAccrue(rd, bs, side, sp.virt, w*eff, aggMediaRow)
				}
			}
		}
	}
}

func (m *Module) refAccrue(rd refDisturb, bs *bankState, side addr.Side, virt int, amount float64, aggMediaRow int) {
	d := rd.of(bs)[side].Add(virt, amount)
	if d < m.prof.HammerThreshold {
		return
	}
	// Threshold exceeded: the victim's weak cells discharge. Reset the
	// accumulation; committing is idempotent for already-failed cells.
	rd.of(bs)[side].Delete(virt)
	m.commitFlips(bs, side, virt, aggMediaRow)
}

func (m *Module) refRefreshNeighbourhood(rd refDisturb, bankIdx, mediaRow int) {
	bs := m.banks[bankIdx]
	if bs == nil || mediaRow < 0 || mediaRow >= m.g.RowsPerBank {
		return
	}
	blast := m.prof.BlastRadius
	sub := m.g.RowsPerSubarray
	for _, side := range [...]addr.Side{addr.SideA, addr.SideB} {
		_, anchor := m.internalTarget(bs, mediaRow, side)
		aggSub := anchor / sub
		for off := -blast; off <= blast; off++ {
			pos := anchor + off
			if pos < 0 || pos >= m.g.RowsPerBank || pos/sub != aggSub {
				continue
			}
			rd.of(bs)[side].Delete(pos)
			if bs.hasSpares {
				for _, sp := range bs.sparesAtAnchor[pos] {
					rd.of(bs)[side].Delete(sp.virt)
				}
			}
		}
	}
}

func (m *Module) refRefresh(rd refDisturb) {
	m.actMu.Lock()
	defer m.actMu.Unlock()
	for _, bs := range m.banks {
		if bs == nil {
			continue
		}
		rd.of(bs)[0].Reset()
		rd.of(bs)[1].Reset()
		bs.acts = 0
	}
	m.defenses.OnWindowEnd()
	m.window++
}

// weakCellsRef is the weak-cell derivation before it appended into a reused
// buffer, kept verbatim as the oracle: a fresh slice and a seen-set per call.
func weakCellsRef(prof Profile, socket, dimm int, bank geometry.BankID, side addr.Side, virtRow, bitsPerHalfRow int) []weakCell {
	h := splitmix64(uint64(prof.Seed))
	h = splitmix64(h ^ uint64(socket)<<48 ^ uint64(dimm)<<40 ^ uint64(bank.Rank)<<32 ^ uint64(bank.Bank)<<24 ^ uint64(side)<<16)
	h = splitmix64(h ^ uint64(virtRow))
	const scale = 1 << 53
	if float64(h>>11)/scale >= prof.VulnerableRowFraction {
		return nil
	}
	cells := make([]weakCell, 0, prof.WeakCellsPerRow)
	seen := make(map[int]bool, prof.WeakCellsPerRow)
	for len(cells) < prof.WeakCellsPerRow {
		h = splitmix64(h)
		bit := int(h % uint64(bitsPerHalfRow))
		if seen[bit] {
			continue
		}
		seen[bit] = true
		cells = append(cells, weakCell{bit: bit, failsTo: h&(1<<60) != 0})
	}
	return cells
}

// TestWeakCellsMatchReference derives half-rows into one reused buffer and
// one reused duplicate bitset, the way commitFlips does, and demands the
// reference's cells in its order and the bitset clear again after every
// call. Few bits per half-row make repeated bit draws common, so the
// duplicate check is exercised; a non-empty buffer prefix must be left alone.
// The cell counts span the profiles in use: a handful (profiles A-F), 40
// (ECC study), 600 (the EPT-relocation lab profile) and 4000 (eptguard).
func TestWeakCellsMatchReference(t *testing.T) {
	prof := testProfile()
	prof.VulnerableRowFraction = 0.7
	prefix := []weakCell{{bit: 3}, {bit: 5, failsTo: true}}
	var buf []weakCell
	for _, tc := range []struct{ cells, bits, rows int }{
		{6, 8, 500}, {6, 16, 500}, {6, 64 * 1024, 500},
		{40, 64, 200}, {600, 1000, 50}, {600, 64 * 1024, 50}, {4000, 32 * 1024, 20},
	} {
		prof.WeakCellsPerRow = tc.cells
		seen := newCellBitset(tc.bits)
		for row := 0; row < tc.rows; row++ {
			side := addr.Side(row % 2)
			bank := geometry.BankID{Rank: row % 2, Bank: row % 3}
			want := weakCellsRef(prof, 1, 2, bank, side, row, tc.bits)
			buf = weakCells(append(buf[:0], prefix...), seen, prof, 1, 2, bank, side, row, tc.bits)
			if !slices.Equal(buf[:len(prefix)], prefix) {
				t.Fatalf("%d cells, bits %d row %d: prefix overwritten: %v", tc.cells, tc.bits, row, buf[:len(prefix)])
			}
			if got := buf[len(prefix):]; !slices.Equal(got, want) {
				t.Fatalf("%d cells, bits %d row %d: cells %v, want %v", tc.cells, tc.bits, row, got, want)
			}
			if i := slices.IndexFunc(seen, func(w uint64) bool { return w != 0 }); i >= 0 {
				t.Fatalf("%d cells, bits %d row %d: bitset word %d left set", tc.cells, tc.bits, row, i)
			}
		}
	}
}
