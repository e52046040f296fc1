package dram

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/addr"
	"repro/internal/geometry"
)

// span is a physical range [lo, hi) whose census regions censusCheck
// recounts.
type span struct{ lo, hi uint64 }

// everything is all of m's memory.
func everything(m *Memory) span { return span{0, uint64(m.g.TotalBytes())} }

// around is what a bulk operation on [pa, pa+n) can change: every row it
// brings to life or releases sits in a stripe that overlaps the range, so
// the row's regions lie within a stripe of it.
func around(m *Memory, pa uint64, n int) span {
	st, _ := m.mapper.Stripe(0) // every stripe of a mapping is as long
	return span{pa - min(pa, uint64(st.Len)), pa + uint64(n) + uint64(st.Len)}
}

// censusCheck recounts, from the physical-address side, every census region
// that overlaps one of the spans and compares it with the census: it decodes
// each stripe that overlaps those regions and counts, in each region the
// stripe overlaps, the stripe's banks that hold its row. It reads the row
// index without locks, so the memory must be quiescent.
func censusCheck(m *Memory, spans ...span) error {
	// Whether some bank of a socket has the 64-row index leaf a row lies
	// in, found on first asking: a stripe whose leaf no bank has holds no
	// row, and most stripes are such.
	perDIMM, leaves := m.g.BanksPerDIMM(), m.modules[0][0].rows.leaves
	leafSeen := make([]int8, len(m.modules)*leaves) // 0 not yet asked, 1 no bank has it, 2 some bank does
	hasLeaf := func(socket, row int) bool {
		k := &leafSeen[socket*leaves+row>>rowLeafShift]
		if *k == 0 {
			*k = 1
			for _, mod := range m.modules[socket] {
				for _, tbl := range mod.rows.banks {
					if tbl != nil && tbl[row>>rowLeafShift] != nil {
						*k = 2
					}
				}
			}
		}
		return *k == 2
	}
	total := uint64(m.g.TotalBytes())
	for _, sp := range spans {
		if sp.hi = min(sp.hi, total); sp.lo >= sp.hi {
			continue
		}
		first, last := sp.lo>>censusShift, (sp.hi-1)>>censusShift
		want := make([]int32, last-first+1)
		st, err := m.mapper.Stripe(first << censusShift)
		if err != nil {
			return err
		}
		end := min((last+1)<<censusShift, total)
		for base := first<<censusShift - uint64(st.Off); base < end; base += uint64(st.Len) {
			if st, err = m.mapper.Stripe(base); err != nil {
				return err
			}
			if st.Off != 0 {
				return fmt.Errorf("stripe decoded at %#x starts %d bytes earlier", base, st.Off)
			}
			if !hasLeaf(st.Socket, st.Row) {
				continue
			}
			live := int32(0)
			for b := st.Bank0; b < st.Bank0+st.Banks; b++ {
				if m.modules[st.Socket][b/perDIMM].rows.has(b%perDIMM, st.Row) {
					live++
				}
			}
			for r := max(base>>censusShift, first); r <= min((base+uint64(st.Len)-1)>>censusShift, last); r++ {
				want[r-first] += live
			}
		}
		for i, w := range want {
			r := first + uint64(i)
			if got := m.census.live[r].Load(); got != w {
				return fmt.Errorf("census region %d [%#x, %#x) counts %d live rows, the stripes overlapping it hold %d",
					r, r<<censusShift, (r+1)<<censusShift, got, w)
			}
		}
	}
	return nil
}

// TestCensusCountsFlipsInUnwrittenPages: a Rowhammer flip materializes its
// victim row through commitFlips, not through the walker, so it must count
// in the census like a store. Hammer until a flip lands in memory nobody
// wrote; then a copy of the victim's page must report data and carry the
// flipped byte, and a read must see it.
func TestCensusCountsFlipsInUnwrittenPages(t *testing.T) {
	mem := testMemory(t)
	const aggPA = 24 * geometry.MiB
	for i := 0; len(mem.Flips()) == 0; i++ {
		if i == 100 {
			t.Fatal("no flip after 100 hammer bursts")
		}
		if err := mem.ActivatePhys(aggPA, 1000, 0); err != nil {
			mem.Refresh()
		}
	}
	dst := uint64(mem.g.TotalBytes()) - geometry.PageSize2M
	scratch := make([]byte, mem.g.RowBytes)
	for _, f := range mem.Flips() {
		pa, err := mem.FlipPhys(f)
		if err != nil {
			t.Fatal(err)
		}
		page := pa &^ (geometry.PageSize2M - 1)
		if page == dst {
			t.Fatalf("flip %v landed in the copy's destination page", f)
		}
		var want, got [1]byte
		if err := mem.ReadPhys(pa, want[:]); err != nil {
			t.Fatal(err)
		}
		if want[0]&(1<<(f.Bit%8)) == 0 {
			t.Fatalf("flip %v at %#x does not read back: byte %#x", f, pa, want[0])
		}
		nonzero, err := mem.CopyPhys(dst, mem, page, geometry.PageSize2M, scratch)
		if err != nil || !nonzero {
			t.Fatalf("copy of the page holding flip %v = %v, %v; want nonzero", f, nonzero, err)
		}
		if err := mem.ReadPhys(dst+pa-page, got[:]); err != nil || got != want {
			t.Fatalf("copied flip %v reads %#x, want %#x (err %v)", f, got[0], want[0], err)
		}
		if err := mem.ScrubPhys(dst, geometry.PageSize2M); err != nil {
			t.Fatal(err)
		}
	}
	if err := censusCheck(mem, everything(mem)); err != nil {
		t.Error(err)
	}
}

// TestCensusRacesCopyScrubAndRead runs copies, reads and scrubs over frames
// in which writers keep materializing a stripe and scrubbing it whole again,
// with each copy's destination on another DIMM (linear mapping: a stripe is
// one bank's row) or on the other socket (interleaved mapping). The census is
// read without a lock while the writers and the scrubs change it under their
// modules' rowsMu, so a counter that is not atomic is a race under -race; and
// every line a reader sees must be zero or the writer's, never torn or stale.
// When all are done the census must agree with a recount.
func TestCensusRacesCopyScrubAndRead(t *testing.T) {
	g := smallServer()
	const page = geometry.PageSize2M
	dimm, socket := uint64(g.SocketBytes())/uint64(g.DIMMsPerSocket), uint64(g.SocketBytes())
	for _, tc := range []struct {
		name  string
		kind  addr.Kind
		other uint64 // the second side: the next DIMM or the other socket
	}{
		{"two-dimms", addr.KindLinear, dimm},
		{"two-sockets", addr.KindSkylake, socket},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mapper, err := addr.NewMapper(g, tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			mem, err := NewMemory(g, mapper, []Profile{testProfile()}, nil)
			if err != nil {
				t.Fatal(err)
			}
			st, err := mapper.Stripe(0)
			if err != nil {
				t.Fatal(err)
			}
			stripe := int(st.Len)
			// Side i writes frame src[i] and copies the other side's frame
			// into its own dst[i].
			src := [2]uint64{page, tc.other + page}
			dst := [2]uint64{3 * page, tc.other + 3*page}
			pattern := [2]byte{0xA1, 0xB2}
			lineOK := func(b []byte, pat byte) bool {
				for l := 0; l < len(b); l += geometry.CacheLineSize {
					line := b[l : l+geometry.CacheLineSize]
					if !AllZero(line) && bytes.Count(line, []byte{pat}) != len(line) {
						return false
					}
				}
				return true
			}

			stop := make(chan struct{})
			var writers, readers sync.WaitGroup
			for i := range src {
				writers.Add(1)
				go func(i int) {
					defer writers.Done()
					data := bytes.Repeat([]byte{pattern[i]}, stripe)
					for k := 0; ; k = (k + 1) % (page / stripe) {
						select {
						case <-stop:
							return
						default:
						}
						pa := src[i] + uint64(k*stripe)
						if err := mem.WritePhys(pa, data); err != nil {
							t.Error(err)
							return
						}
						if err := mem.ScrubPhys(pa, stripe); err != nil {
							t.Error(err)
							return
						}
					}
				}(i)
			}
			for i := range src {
				readers.Add(1)
				go func(i int) {
					defer readers.Done()
					from, to, pat := src[1-i], dst[i], pattern[1-i]
					scratch, buf := make([]byte, g.RowBytes), make([]byte, page)
					for round := 0; round < 12 && !t.Failed(); round++ {
						if _, err := mem.CopyPhys(to, mem, from, page, scratch); err != nil {
							t.Error(err)
							return
						}
						if err := mem.ReadPhys(to, buf); err != nil || !lineOK(buf, pat) {
							t.Errorf("round %d: a line of the copy is neither zero nor %#x (err %v)", round, pat, err)
							return
						}
						if err := mem.ScrubPhys(to, page); err != nil {
							t.Error(err)
							return
						}
						if err := mem.ReadPhys(from, buf); err != nil || !lineOK(buf, pat) {
							t.Errorf("round %d: a line of the source is neither zero nor %#x (err %v)", round, pat, err)
							return
						}
					}
				}(i)
			}
			readers.Wait()
			close(stop)
			writers.Wait()
			if err := censusCheck(mem, everything(mem)); err != nil {
				t.Error(err)
			}
			if n := mem.LiveRows(); n != 0 {
				t.Errorf("%d rows live after every write was scrubbed", n)
			}
		})
	}
}
