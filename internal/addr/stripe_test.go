package addr

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/geometry"
)

// Stripe's oracle is Decode: a stripe is only a claim about where Decode
// puts each of its cache lines, so every property below is checked against
// the per-line decode the bulk data path used to make.

// checkStripeLine demands that line l of st (based at physical address
// base) decodes to the bank, row and column the Stripe contract promises.
func checkStripeLine(t *testing.T, m refMapper, st Stripe, base uint64, l int64) {
	t.Helper()
	g := m.Geometry()
	ma, err := m.Decode(base + uint64(l)*geometry.CacheLineSize)
	if err != nil {
		t.Fatalf("%T stripe %+v line %d: Decode: %v", m, st, l, err)
	}
	wantBank := geometry.BankFromSocketFlat(g, st.Socket, st.Bank0+int(l%int64(st.Banks)))
	wantCol := int(l/int64(st.Banks)) * geometry.CacheLineSize
	if ma.Bank != wantBank || ma.Row != st.Row || ma.Col != wantCol {
		t.Fatalf("%T stripe %+v line %d: Decode says %v, stripe says bank %v row %d col %d",
			m, st, l, ma, wantBank, st.Row, wantCol)
	}
}

// checkStripeAt checks the stripe containing pa: shape, agreement with
// Decode on the given lines (nil = every line), and that its two ends are
// where the neighbouring stripes begin and end. It returns the stripe's
// base address and length, zeros when pa is out of range (which must be an
// ErrOutOfRange from Stripe and Decode alike).
func checkStripeAt(t *testing.T, m refMapper, pa uint64, lines []int64) (base uint64, length int64) {
	t.Helper()
	g := m.Geometry()
	total := uint64(g.TotalBytes())
	st, err := m.Stripe(pa)
	if pa >= total {
		if !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("%T Stripe(%#x) past the end: err %v, want ErrOutOfRange", m, pa, err)
		}
		_, derr := m.Decode(pa)
		if derr == nil || derr.Error() != err.Error() {
			t.Fatalf("%T out-of-range errors differ: Stripe %q, Decode %q", m, err, derr)
		}
		return 0, 0
	}
	if err != nil {
		t.Fatalf("%T Stripe(%#x): %v", m, pa, err)
	}
	if st.Banks <= 0 || st.Bank0 < 0 || st.Bank0+st.Banks > g.BanksPerSocket() ||
		st.Socket < 0 || st.Socket >= g.Sockets || st.Row < 0 || st.Row >= g.RowsPerBank {
		t.Fatalf("%T Stripe(%#x) = %+v outside the geometry", m, pa, st)
	}
	if st.Len != int64(st.Banks)*int64(g.RowBytes) || st.Off < 0 || st.Off >= st.Len {
		t.Fatalf("%T Stripe(%#x) = %+v: Len must be Banks rows and Off inside it", m, pa, st)
	}
	base = pa - uint64(st.Off)
	if base+uint64(st.Len) > total {
		t.Fatalf("%T Stripe(%#x) = %+v runs past the end of memory", m, pa, st)
	}
	nLines := st.Len / geometry.CacheLineSize
	if lines == nil {
		for l := int64(0); l < nLines; l++ {
			checkStripeLine(t, m, st, base, l)
		}
	} else {
		for _, l := range lines {
			checkStripeLine(t, m, st, base, l%nLines)
		}
	}
	// Every address of the span names the same stripe...
	for _, q := range []uint64{base, base + uint64(st.Len) - 1} {
		got, err := m.Stripe(q)
		want := st
		want.Off = int64(q - base)
		if err != nil || got != want {
			t.Fatalf("%T Stripe(%#x) = %+v (%v), want %+v: same span as Stripe(%#x)", m, q, got, err, want, pa)
		}
	}
	// ...and the next byte starts another (no gap, no overlap).
	if next := base + uint64(st.Len); next < total {
		got, err := m.Stripe(next)
		if err != nil || got.Off != 0 {
			t.Fatalf("%T Stripe(%#x) = %+v (%v): the stripe after %#x must start there", m, next, got, err, base)
		}
	}
	return base, st.Len
}

// stripeBoundaries lists the addresses where a mapping changes regime:
// the ends of memory, socket bases, the range-A/B split, and for the
// Skylake family chunk and region-slice edges, for partitioned mappings
// partition edges.
func stripeBoundaries(m refMapper) []uint64 {
	g := m.Geometry()
	socket := uint64(g.SocketBytes())
	out := []uint64{uint64(g.TotalBytes())}
	for s := 0; s < g.Sockets; s++ {
		base := uint64(s) * socket
		out = append(out, base, base+socket/2)
		switch mm := m.(type) {
		case *SkylakeMapper:
			chunk, half := uint64(mm.chunkBytes), uint64(mm.halfBytes)
			for _, rangeBase := range []uint64{base, base + socket/2} {
				out = append(out, rangeBase+chunk, rangeBase+2*chunk, rangeBase+half-chunk)
				if half < socket/2 {
					out = append(out, rangeBase+half, rangeBase+half+chunk)
				}
			}
		case *PartitionedMapper:
			for p := 1; p < mm.partitions; p++ {
				out = append(out, base+uint64(p)*uint64(mm.partBytes))
			}
		}
	}
	return out
}

// TestStripeMatchesDecode is the differential oracle for Mapper.Stripe over
// every mapper family and geometry in use.
func TestStripeMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, m := range equivalenceMappers(t) {
		total := uint64(m.Geometry().TotalBytes())
		// Whole stripes, every line, at random addresses.
		for i := 0; i < 6; i++ {
			checkStripeAt(t, m, rng.Uint64()%total, nil)
		}
		// Many stripes, sampled lines.
		for i := 0; i < 2000; i++ {
			checkStripeAt(t, m, rng.Uint64()%total, []int64{0, 1, rng.Int63(), rng.Int63(), 1<<62 - 1})
		}
		// Walk the tiling across each boundary: consecutive stripes
		// must abut exactly, the boundary itself must start one, and
		// the last stripe must end where memory does.
		for _, b := range stripeBoundaries(m) {
			if b == total {
				checkStripeAt(t, m, total, nil)
				checkStripeAt(t, m, total+4096, nil)
				base, length := checkStripeAt(t, m, total-1, nil)
				if base+uint64(length) != total {
					t.Fatalf("%T: last stripe [%#x,+%#x) does not end at %#x", m, base, length, total)
				}
				continue
			}
			st, err := m.Stripe(b)
			if err != nil || st.Off != 0 {
				t.Fatalf("%T: boundary %#x is not a stripe start: %+v (%v)", m, b, st, err)
			}
			pa := b - min(b, 4*uint64(st.Len))
			for steps := 0; steps < 8 && pa < total; steps++ {
				base, length := checkStripeAt(t, m, pa, []int64{0, rng.Int63(), 1<<62 - 1})
				if base != pa {
					t.Fatalf("%T: walking from %#x reached %#x inside stripe [%#x,+%#x)", m, b, pa, base, length)
				}
				pa = base + uint64(length)
			}
		}
	}
}

// FuzzStripeMatchesDecode lets the fuzzer pick the address and the line.
func FuzzStripeMatchesDecode(f *testing.F) {
	ms := equivalenceMappers(f)
	f.Add(uint64(0), int64(0), uint8(0))
	f.Add(uint64(768)<<20-64, int64(191), uint8(0))
	f.Add(uint64(geometry.Default().SocketBytes()), int64(24575), uint8(1))
	f.Add(^uint64(0), int64(7), uint8(3))
	f.Fuzz(func(t *testing.T, pa uint64, line int64, which uint8) {
		if line < 0 {
			line = -(line + 1)
		}
		checkStripeAt(t, ms[int(which)%len(ms)], pa, []int64{line})
	})
}
