package dram

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/addr"
	"repro/internal/geometry"
)

// copyFn is what CopyPhys, the read-then-write oracle's mutant and any other
// implementation under the differential harness look like.
type copyFn func(dst *Memory, dstPA uint64, src *Memory, srcPA uint64, n int) (nonzero bool, err error)

func copyPhys(scratch []byte) copyFn {
	return func(dst *Memory, dstPA uint64, src *Memory, srcPA uint64, n int) (bool, error) {
		return dst.CopyPhys(dstPA, src, srcPA, n, scratch)
	}
}

// What a copyOp does to frame (mem, slot), or copies from it to (dmem, dslot).
const (
	copyStamp      = iota // a short run of bytes: a one- or two-row source
	copyFill              // every byte of the frame
	copyZero              // stores of zeros over a stamp's bytes (odd arg) or the frame: rows zeroed in place
	copyScrub             // ScrubPhys of the frame: rows absent again where a stripe is covered
	copyPage              // copy the 2 MiB frame
	copyRegion            // copy one 4 KiB page of it
	copyOdd               // copy an unaligned run, both sides at one offset within a line
	copyMisaligned        // the sides differ within a line: an error, nothing moves
	copyOffEnd            // the range runs off the end of a memory
	copyKinds
)

type copyOp struct {
	kind        int
	mem, slot   int
	dmem, dslot int
	arg         int
}

// copyWorld is two memories under the implementation and two under the
// oracle, holding the same bytes, with a few 2 MiB frames every operation
// lands on so that copies meet what earlier ones left.
type copyWorld struct {
	got, ref [2]*Memory
	slots    []uint64
	buf      []byte // the oracle's bounce buffer
	a, b     []byte
	used     [2][5]bool // frames an op has touched: what settle compares
}

const copyPad = 4096 // compared on each side of a copied range

func newCopyWorld(tc oracleCase) (*copyWorld, error) {
	w := &copyWorld{}
	for i := range w.got {
		for _, side := range []*[2]*Memory{&w.got, &w.ref} {
			mapper, err := tc.mapper(tc.g)
			if err != nil {
				return nil, err
			}
			if side[i], err = NewMemory(tc.g, mapper, []Profile{testProfile()}, nil); err != nil {
				return nil, err
			}
		}
	}
	// Two frames a DIMM shares under the linear mapping, one on the next
	// DIMM, one on the other socket, and the last of memory. On the 192-bank
	// server the first three sit at stripe offsets 0.5, 1.0 and 0.5 MiB + a
	// DIMM's worth.
	const page = geometry.PageSize2M
	dimm := uint64(tc.g.SocketBytes()) / uint64(tc.g.DIMMsPerSocket)
	w.slots = []uint64{page, 2 * page, dimm + page, uint64(tc.g.SocketBytes()) + 3*page, uint64(tc.g.TotalBytes()) - page}
	w.buf = make([]byte, page)
	w.a, w.b = make([]byte, page+2*copyPad), make([]byte, page+2*copyPad)
	return w, nil
}

// stampRange places a stamp by its arg: a run of up to 200 bytes anywhere in
// the frame, so a copyZero with the same arg re-zeroes exactly it.
func stampRange(arg int) (off, n int) {
	return arg * 1021 % (geometry.PageSize2M - 200), 1 + arg%200
}

// apply runs one op on both sides and reports the first divergence.
func (w *copyWorld) apply(impl copyFn, op copyOp) error {
	const page = geometry.PageSize2M
	w.used[op.mem][op.slot] = true
	store := func(off int, data []byte) error {
		pa := w.slots[op.slot] + uint64(off)
		return errors.Join(w.got[op.mem].WritePhys(pa, data), w.ref[op.mem].WritePhys(pa, data))
	}
	switch op.kind {
	case copyStamp:
		off, n := stampRange(op.arg)
		for i := range w.buf[:n] {
			w.buf[i] = byte(op.arg+i) | 1
		}
		return store(off, w.buf[:n])
	case copyFill:
		for i := range w.buf[:page] {
			w.buf[i] = byte(i*7+op.arg) | 1
		}
		return store(0, w.buf[:page])
	case copyZero:
		off, n := 0, page
		if op.arg%2 == 1 {
			off, n = stampRange(op.arg)
		}
		clear(w.buf[:n])
		return store(off, w.buf[:n])
	case copyScrub:
		pa := w.slots[op.slot]
		return errors.Join(w.got[op.mem].ScrubPhys(pa, page), w.ref[op.mem].ScrubPhys(pa, page))
	}

	if last := len(w.slots) - 1; op.kind == copyOffEnd && op.arg%2 == 0 {
		op.slot = last
	} else if op.kind == copyOffEnd {
		op.dslot = last
	}
	if op.mem == op.dmem && op.slot == op.dslot {
		return nil // the two ranges of a copy must not overlap
	}
	w.used[op.mem][op.slot], w.used[op.dmem][op.dslot] = true, true
	src, dst := w.got[op.mem], w.got[op.dmem]
	srcPA, dstPA, n := w.slots[op.slot], w.slots[op.dslot], page
	switch op.kind {
	case copyRegion:
		srcPA += uint64(op.arg%512) * geometry.PageSize4K
		dstPA += uint64(op.arg/512%512) * geometry.PageSize4K
		n = geometry.PageSize4K
	case copyOdd:
		// Different lines, the same offset within them.
		srcPA += uint64(op.arg % (page / 2))
		dstPA += uint64(op.arg*64%(page/2) + op.arg%64)
		n = 1 + op.arg*37%(page/2)
	case copyMisaligned:
		dstPA += uint64(1 + op.arg%63)
		n = geometry.PageSize4K
		before := dst.LiveRows()
		if nonzero, err := impl(dst, dstPA, src, srcPA, n); err == nil || nonzero {
			return fmt.Errorf("copy %#x -> %#x across a line offset = %v, %v; want an error", srcPA, dstPA, nonzero, err)
		}
		if after := dst.LiveRows(); after != before {
			return fmt.Errorf("rejected copy changed the destination's live rows %d -> %d", before, after)
		}
		return nil
	case copyOffEnd:
		// One side is the last frame of memory (above): start inside it
		// and end past it.
		if off := uint64(1+op.arg%256) * geometry.PageSize4K; op.arg%2 == 0 {
			srcPA += off
		} else {
			dstPA += off
		}
	}

	before := dst.LiveRows()
	nonzero, err := impl(dst, dstPA, src, srcPA, n)
	refNonzero, refErr := copyRef(w.ref[op.dmem], dstPA, w.ref[op.mem], srcPA, w.buf[:n])
	if (err == nil) != (refErr == nil) || errors.Is(err, addr.ErrOutOfRange) != errors.Is(refErr, addr.ErrOutOfRange) {
		return fmt.Errorf("copy(%#x -> %#x, %d): err %v, oracle err %v", srcPA, dstPA, n, err, refErr)
	}
	if err != nil {
		// What a failed copy leaves behind is unspecified (the oracle fails
		// before it writes, the copy at the segment that runs off the end):
		// bring the destinations back in step.
		total := uint64(dst.g.TotalBytes())
		if dstPA >= total {
			return nil
		}
		rest := int(min(uint64(n), total-dstPA))
		return errors.Join(dst.ScrubPhys(dstPA, rest), w.ref[op.dmem].ScrubPhys(dstPA, rest))
	}
	if nonzero != refNonzero {
		return fmt.Errorf("copy(%#x -> %#x, %d) reported nonzero = %v, oracle %v", srcPA, dstPA, n, nonzero, refNonzero)
	}

	// Sparsity: a row comes to life at the destination only where source
	// data lands on it. The oracle's bounce buffer holds the source bytes.
	landed := map[geometry.MediaAddr]struct{}{}
	for off := 0; off < n; {
		chunk := min(n-off, geometry.CacheLineSize-int((dstPA+uint64(off))%geometry.CacheLineSize))
		if !AllZero(w.buf[off : off+chunk]) {
			ma, err := dst.mapper.Decode(dstPA + uint64(off))
			if err != nil {
				return err
			}
			ma.Col = 0
			landed[ma] = struct{}{}
		}
		off += chunk
	}
	if after := dst.LiveRows(); after > before+len(landed) {
		return fmt.Errorf("copy(%#x -> %#x, %d): destination live rows %d -> %d, but source data lands on only %d rows",
			srcPA, dstPA, n, before, after, len(landed))
	}

	// And a source that reads as zero leaves no row behind that the range
	// covers in full — a scrub of the range finds none to release — where
	// the two sides sit at one stripe offset, so no row is cut in two.
	if st, err := dst.mapper.Stripe(dstPA); err != nil {
		return err
	} else if !nonzero && srcPA%uint64(st.Len) == dstPA%uint64(st.Len) {
		after := dst.LiveRows()
		if err := dst.ScrubPhys(dstPA, n); err != nil {
			return err
		}
		if left := after - dst.LiveRows(); left != 0 {
			return fmt.Errorf("copy(%#x -> %#x, %d) of a zero source left %d wholly covered rows materialized", srcPA, dstPA, n, left)
		}
	}

	lo := dstPA - copyPad
	a, b := w.a[:n+2*copyPad], w.b[:n+2*copyPad]
	if end := lo + uint64(len(a)); end > uint64(dst.g.TotalBytes()) {
		a, b = a[:len(a)-copyPad], b[:len(b)-copyPad]
	}
	if err := errors.Join(dst.ReadPhys(lo, a), w.ref[op.dmem].ReadPhys(lo, b)); err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("copy(%#x -> %#x, %d): destination differs from the oracle's", srcPA, dstPA, n)
	}
	return nil
}

// settle compares every frame an op touched, in both memories, byte for
// byte at the end of a run: sources must be as they were left, too.
func (w *copyWorld) settle() error {
	a, b := w.a[:geometry.PageSize2M], w.b[:geometry.PageSize2M]
	for i := range w.got {
		for slot, pa := range w.slots {
			if !w.used[i][slot] {
				continue
			}
			if err := errors.Join(w.got[i].ReadPhys(pa, a), w.ref[i].ReadPhys(pa, b)); err != nil {
				return err
			}
			if !bytes.Equal(a, b) {
				return fmt.Errorf("memory %d frame %#x differs from the oracle's at the end of the run", i, pa)
			}
		}
	}
	return nil
}

// censusCheck compares the census of memory i, the implementation's and the
// oracle's, with a recount: around each frame (every op lands on the frames)
// after an op that touched it, over all of memory at the end of the run.
func (w *copyWorld) censusCheck(i int, all bool) error {
	for _, mem := range []*Memory{w.got[i], w.ref[i]} {
		spans := []span{everything(mem)}
		if !all {
			spans = spans[:0]
			for _, pa := range w.slots {
				spans = append(spans, around(mem, pa, geometry.PageSize2M))
			}
		}
		if err := censusCheck(mem, spans...); err != nil {
			return err
		}
	}
	return nil
}

// copyDiffRun drives impl and the oracle through ops on a fresh world.
func copyDiffRun(tc oracleCase, impl copyFn, ops []copyOp) error {
	w, err := newCopyWorld(tc)
	if err != nil {
		return err
	}
	for i, op := range ops {
		err := errors.Join(w.apply(impl, op), w.censusCheck(op.mem, false))
		if op.dmem != op.mem {
			err = errors.Join(err, w.censusCheck(op.dmem, false))
		}
		if err != nil {
			return fmt.Errorf("op %d %+v: %w", i, op, err)
		}
	}
	return errors.Join(w.settle(), w.censusCheck(0, true), w.censusCheck(1, true))
}

// scriptedCopyOps walks one source frame through every state a guest page
// can be in — absent, one stamped row, dense, zeroed in place, dense again,
// scrubbed — copying it after each step to a frame on the same DIMM, the
// next DIMM, the other socket and another Memory, as a 2 MiB frame and as a
// 4 KiB one: every re-copy meets the data the previous one left.
func scriptedCopyOps() []copyOp {
	const stamp = 0x3001 // odd: copyZero with it re-zeroes exactly the stamp
	off, _ := stampRange(stamp)
	region := off/geometry.PageSize4K + 5*512 // the stamp's 4 KiB page, to page 5 of the destination
	var ops []copyOp
	for _, kind := range []int{copyPage, copyRegion} {
		for _, to := range []struct{ dmem, dslot int }{{0, 1}, {0, 2}, {0, 3}, {1, 0}, {1, 4}} {
			for _, prep := range []copyOp{
				{kind: -1},
				{kind: copyStamp, arg: stamp},
				{kind: copyZero, arg: stamp},
				{kind: copyFill, arg: 2},
				{kind: copyZero, arg: 2},
				{kind: copyFill, arg: 4},
				{kind: copyScrub},
				{kind: copyStamp, arg: stamp},
				{kind: copyScrub},
			} {
				if prep.kind >= 0 {
					ops = append(ops, prep)
				}
				ops = append(ops, copyOp{kind: kind, dmem: to.dmem, dslot: to.dslot, arg: region})
			}
		}
	}
	return ops
}

func randomCopyOps(rng *rand.Rand, n int) []copyOp {
	ops := make([]copyOp, n)
	for i := range ops {
		kind := rng.Intn(copyKinds)
		if kind == copyFill && rng.Intn(2) == 0 {
			kind = copyStamp // sparse frames are the common case
		}
		ops[i] = copyOp{kind: kind, mem: rng.Intn(2), slot: rng.Intn(5), dmem: rng.Intn(2), dslot: rng.Intn(5), arg: rng.Intn(1 << 20)}
	}
	return ops
}

// TestCopyMatchesReadThenWrite holds CopyPhys to the read-then-write copy it
// replaced, over every mapping and geometry of the bulk-path oracle: the
// same bytes in both memories, the same nonzero answer, the same errors, no
// destination row brought to life that source data does not land on, and
// after every op each memory's census equal to a recount.
func TestCopyMatchesReadThenWrite(t *testing.T) {
	for _, tc := range oracleCases() {
		t.Run(tc.name, func(t *testing.T) {
			impl := copyPhys(make([]byte, tc.g.RowBytes))
			if err := copyDiffRun(tc, impl, scriptedCopyOps()); err != nil {
				t.Error(err)
			}
			if err := copyDiffRun(tc, impl, randomCopyOps(rand.New(rand.NewSource(19)), 120)); err != nil {
				t.Error(err)
			}
		})
	}
}

// FuzzCopyMatchesReadThenWrite decodes six bytes per op — kind, source
// memory and frame, destination memory and frame, and a 16-bit argument —
// and at most 24 ops a run.
func FuzzCopyMatchesReadThenWrite(f *testing.F) {
	f.Add(uint8(1), []byte{copyStamp, 0, 0, 0, 0, 7, copyPage, 0, 0x10, 0, 0, 0, copyZero, 0, 0, 0, 0, 7, copyPage, 0, 0x10, 0, 0, 0})
	f.Add(uint8(4), []byte{copyFill, 1, 0, 0, 0, 0, copyRegion, 1, 0x03, 0, 9, 1, copyOffEnd, 1, 0x02, 0, 0, 3})
	f.Add(uint8(0), []byte{copyOdd, 0, 0x31, 0xff, 0xff, 0xff, copyMisaligned, 0, 0x01, 0, 0, 0})
	cases := oracleCases()
	f.Fuzz(func(t *testing.T, caseSel uint8, data []byte) {
		tc := cases[int(caseSel)%len(cases)]
		var ops []copyOp
		for ; len(data) >= 6 && len(ops) < 24; data = data[6:] {
			ops = append(ops, copyOp{
				kind: int(data[0]) % copyKinds,
				mem:  int(data[1]) & 1, slot: int(data[2]&0xf) % 5,
				dmem: int(data[1]) >> 1 & 1, dslot: int(data[2]>>4) % 5,
				arg: int(data[3]) | int(data[4])<<8 | int(data[5])<<16,
			})
		}
		if err := copyDiffRun(tc, copyPhys(make([]byte, tc.g.RowBytes)), ops); err != nil {
			t.Error(err)
		}
	})
}

// TestDifferentialCatchesStaleDestinationRow shows the harness has teeth. The
// mutant is the retired copyFrame body with always unset — a source that
// reads as zero is skipped — which differs from CopyPhys only in leaving a
// destination row that still holds an earlier copy's data as it was.
func TestDifferentialCatchesStaleDestinationRow(t *testing.T) {
	for _, tc := range oracleCases() {
		buf := make([]byte, geometry.PageSize2M)
		mutant := func(dst *Memory, dstPA uint64, src *Memory, srcPA uint64, n int) (bool, error) {
			if zero, err := src.isZeroRef(srcPA, n); err != nil || zero {
				return false, err
			}
			return copyRef(dst, dstPA, src, srcPA, buf[:n])
		}
		if err := copyDiffRun(tc, mutant, scriptedCopyOps()); err == nil {
			t.Errorf("%s: a copy that leaves stale destination rows went unnoticed", tc.name)
		}
	}
}

// TestCopyNeverTearsALine: a guest keeps storing whole cache lines, each one
// pattern or the other, into a page while it is copied (a live migration
// round). Every line moves under the lock of the module that stores it, so
// every destination line is one pattern or the other, never a mix.
func TestCopyNeverTearsALine(t *testing.T) {
	g := smallServer()
	mapper, err := addr.NewMapper(g, addr.KindSkylake)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewMemory(g, mapper, []Profile{testProfile()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const (
		src   = 2 * geometry.PageSize2M
		lines = 512 // the first 32 KiB of the page: every bank of the stripe
	)
	dst := uint64(g.SocketBytes()) + geometry.PageSize2M
	var patterns [2][geometry.CacheLineSize]byte
	for i := range patterns[0] {
		patterns[0][i], patterns[1][i] = 0x5a, 0xa5
	}
	for l := 0; l < lines; l++ {
		if err := mem.WritePhys(src+uint64(l)*geometry.CacheLineSize, patterns[0][:]); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var stores atomic.Int64
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := mem.WritePhys(src+uint64(i*7%lines)*geometry.CacheLineSize, patterns[i/lines%2][:]); err != nil {
				t.Error(err)
				return
			}
			stores.Add(1)
		}
	}()
	scratch := make([]byte, g.RowBytes)
	got := make([]byte, lines*geometry.CacheLineSize)
	// At least 200 copies, and until the writer has flipped every line
	// both ways twice over while they ran.
	for round := 0; (round < 200 || stores.Load() < 4*lines) && !t.Failed(); round++ {
		if _, err := mem.CopyPhys(dst, mem, src, geometry.PageSize2M, scratch); err != nil {
			t.Fatal(err)
		}
		if err := mem.ReadPhys(dst, got); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < lines; l++ {
			line := got[l*geometry.CacheLineSize:][:geometry.CacheLineSize]
			if !bytes.Equal(line, patterns[0][:]) && !bytes.Equal(line, patterns[1][:]) {
				t.Fatalf("round %d: destination line %d is torn: % x", round, l, line)
			}
		}
	}
	close(stop)
	writer.Wait()
}
