package dram

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/geometry"
)

// get reads a row's accumulator without touching its chunk.
func (t *disturbTable) get(virt int) float64 {
	if s := virt - t.rows; s >= 0 {
		return t.spares[s]
	}
	if c := t.index[virt>>disturbChunkShift]; c != 0 {
		return t.chunks[c-1].vals[virt&(disturbChunkRows-1)]
	}
	return 0
}

// disturbCase is one module the differential test runs over: a profile on a
// one-DIMM geometry of four banks (two ranks, so mirroring applies to half of
// them), with repairs in two of the banks.
type disturbCase struct {
	name string
	g    geometry.Geometry
	prof Profile
}

func disturbGeometry(rows, sub int) geometry.Geometry {
	return geometry.Geometry{
		Sockets: 1, CoresPerSocket: 4, DIMMsPerSocket: 1, RanksPerDIMM: 2,
		BanksPerRank: 2, RowsPerBank: rows, RowBytes: geometry.KiB,
		RowsPerSubarray: sub,
	}
}

// disturbCases crosses the test profile and DIMMs A-F with 512-row subarrays
// (a subarray is sixteen chunks) and 128-row ones (transforms carry rows
// across subarrays). The transform-free test profile also runs on a bank
// whose 40-row subarrays never line up with the 32-row chunks and whose 600
// rows leave the last chunk short.
func disturbCases() []disturbCase {
	var cases []disturbCase
	for _, prof := range append([]Profile{testProfile()}, EvaluationProfiles()...) {
		for _, sub := range []int{512, 128} {
			cases = append(cases, disturbCase{fmt.Sprintf("%s/sub%d", prof.Name, sub), disturbGeometry(1024, sub), prof})
		}
	}
	return append(cases, disturbCase{"test/sub40", disturbGeometry(600, 40), testProfile()})
}

func disturbBank(i int) geometry.BankID {
	return geometry.BankID{Rank: i >> 1 & 1, Bank: i & 1}
}

// repairs puts spares at and across a subarray edge of bank 0 — two anchored
// at the last row of subarray 0, one at the first row of subarray 1 and one
// next to it — plus a spare adjacent to the row it replaces and row 0
// repaired to the far end of the bank; and one spare on a chunk edge of bank
// 3 (odd rank). Banks 1 and 2 have none.
func (tc disturbCase) repairs() (*addr.RepairTable, error) {
	sub, rows := tc.g.RowsPerSubarray, tc.g.RowsPerBank
	rt := addr.NewRepairTable(tc.g)
	for _, r := range []addr.Repair{
		{Bank: disturbBank(0), From: 100, Spare: addr.SpareRow{Anchor: sub - 1}},
		{Bank: disturbBank(0), From: 5, Spare: addr.SpareRow{Anchor: sub - 1}},
		{Bank: disturbBank(0), From: 101, Spare: addr.SpareRow{Anchor: sub}},
		{Bank: disturbBank(0), From: sub + 40, Spare: addr.SpareRow{Anchor: sub + 1}},
		{Bank: disturbBank(0), From: 300, Spare: addr.SpareRow{Anchor: 301}},
		{Bank: disturbBank(0), From: 0, Spare: addr.SpareRow{Anchor: rows - 1}},
		{Bank: disturbBank(3), From: 31, Spare: addr.SpareRow{Anchor: 32}},
	} {
		if err := rt.Add(r); err != nil {
			return nil, err
		}
	}
	return rt, nil
}

// edgeRows lists the media rows whose neighbourhoods the clamp, the chunking
// and the repairs cut: the ends of the bank, of subarrays and of chunks, and
// for every repair the media rows that resolve (on either side) to its source
// and to the rows around its anchor.
func (tc disturbCase) edgeRows(m *Module, rt *addr.RepairTable) []int {
	sub, rows := tc.g.RowsPerSubarray, tc.g.RowsPerBank
	out := []int{0, 1, rows - 2, rows - 1, sub - 1, sub, sub + 1, rows - sub - 1, rows - sub, 30, 31, 32, 33, 63, 64}
	for _, r := range rt.Repairs() {
		for _, side := range []addr.Side{addr.SideA, addr.SideB} {
			out = append(out, m.im.MediaRow(r.Bank, r.From, side))
			for off := -2; off <= 2; off++ {
				if pos := r.Spare.Anchor + off; pos >= 0 && pos < rows {
					out = append(out, m.im.MediaRow(r.Bank, pos, side))
				}
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

const (
	distAct      = iota // an ACT burst
	distWindow          // Refresh: the refresh window ends
	distDirected        // a defense-directed neighbourhood refresh
	distFill            // store ones over a row, so 1 -> 0 weak cells show
	distKinds
)

type distOp struct {
	kind, bank, row, count int
	openNs                 int64
}

// disturbWorld is a module on the chunked accumulators beside one on the
// retired tables, built alike.
type disturbWorld struct {
	tc   disturbCase
	got  *Module
	ref  *Module
	rd   refDisturb
	edge []int
}

func newDisturbWorld(tc disturbCase) (*disturbWorld, error) {
	rt, err := tc.repairs()
	if err != nil {
		return nil, err
	}
	got, err := NewModule(tc.g, tc.prof, 0, 0, rt)
	if err != nil {
		return nil, err
	}
	ref, rd, err := newRefModule(tc.g, tc.prof, rt)
	if err != nil {
		return nil, err
	}
	return &disturbWorld{tc: tc, got: got, ref: ref, rd: rd, edge: tc.edgeRows(got, rt)}, nil
}

// apply runs one op on both modules and compares everything observable.
func (w *disturbWorld) apply(op distOp) error {
	b := disturbBank(op.bank)
	switch op.kind {
	case distAct:
		gerr := w.got.ActivateRow(b, op.row, op.count, op.openNs)
		rerr := w.ref.refActivateRow(w.rd, b, op.row, op.count, op.openNs)
		if (gerr == nil) != (rerr == nil) {
			return fmt.Errorf("ActivateRow: %v, the reference: %v", gerr, rerr)
		}
	case distWindow:
		w.got.Refresh()
		w.ref.refRefresh(w.rd)
	case distDirected:
		w.got.refreshNeighbourhood(op.bank, op.row)
		w.ref.refRefreshNeighbourhood(w.rd, op.bank, op.row)
	case distFill:
		ones := bytes.Repeat([]byte{0xFF}, w.tc.g.RowBytes)
		for _, m := range []*Module{w.got, w.ref} {
			if err := m.WriteRow(b, op.row, 0, ones); err != nil {
				return err
			}
		}
	}
	return w.compare()
}

// compare demands the same flip log, the same window and, for every bank,
// the same activation counts and the same value in every accumulator —
// every row of the bank and every spare, on both sides.
func (w *disturbWorld) compare() error {
	if !slices.Equal(w.got.flips, w.ref.flips) {
		return fmt.Errorf("flip logs differ: %d flips %v, the reference has %d %v", len(w.got.flips), w.got.flips, len(w.ref.flips), w.ref.flips)
	}
	if w.got.window != w.ref.window {
		return fmt.Errorf("window %d, the reference is in %d", w.got.window, w.ref.window)
	}
	for idx, bs := range w.got.banks {
		rbs := w.ref.banks[idx]
		if (bs == nil) != (rbs == nil) {
			return fmt.Errorf("bank %d: touched on one side only", idx)
		}
		if bs == nil {
			continue
		}
		if bs.acts != rbs.acts || bs.totalActs != rbs.totalActs {
			return fmt.Errorf("bank %d: acts %d/%d, the reference has %d/%d", idx, bs.acts, bs.totalActs, rbs.acts, rbs.totalActs)
		}
		for side := range bs.disturb {
			t := &bs.disturb[side]
			for virt := 0; virt < t.rows+len(t.spares); virt++ {
				if g, r := t.get(virt), w.rd.of(rbs)[side].m[virt]; g != r {
					return fmt.Errorf("bank %d side %d row %d: accumulated %v, the reference %v", idx, side, virt, g, r)
				}
			}
		}
	}
	return nil
}

func disturbDiffRun(tc disturbCase, ops func(w *disturbWorld) []distOp) error {
	w, err := newDisturbWorld(tc)
	if err != nil {
		return err
	}
	for i, op := range ops(w) {
		if err := w.apply(op); err != nil {
			return fmt.Errorf("op %d %+v: %w", i, op, err)
		}
	}
	return nil
}

// burst is an activation count as a multiple (in eighths) of the threshold:
// a distance-2 victim of weight 0.25 needs four thresholds' worth to flip.
func (w *disturbWorld) burst(eighths int) int {
	return 1 + eighths*int(w.tc.prof.HammerThreshold)/8
}

// scriptedDisturbOps hammers every edge row of every bank past the threshold
// of both distances, fills it, refreshes around it and hammers it again, with
// a window end once the budget has been spent a few times over.
func scriptedDisturbOps(w *disturbWorld) []distOp {
	var ops []distOp
	for bank := 0; bank < 4; bank++ {
		for i, row := range w.edge {
			ops = append(ops,
				distOp{kind: distAct, bank: bank, row: row, count: w.burst(5)},
				distOp{kind: distAct, bank: bank, row: row, count: w.burst(5), openNs: 3000},
				distOp{kind: distFill, bank: bank, row: row},
				distOp{kind: distAct, bank: bank, row: row, count: w.burst(40)},
				distOp{kind: distDirected, bank: bank, row: w.edge[(i+1)%len(w.edge)]},
				distOp{kind: distAct, bank: bank, row: w.edge[(i+1)%len(w.edge)], count: w.burst(3)},
			)
			if i%8 == 7 {
				ops = append(ops, distOp{kind: distWindow})
			}
		}
	}
	return ops
}

func randomDisturbOps(rng *rand.Rand, n int) func(w *disturbWorld) []distOp {
	return func(w *disturbWorld) []distOp {
		ops := make([]distOp, n)
		for i := range ops {
			kind := distAct
			if k := rng.Intn(16); k < distKinds {
				kind = k // one op in four is not an ACT burst
			}
			ops[i] = w.decode(kind, rng.Intn(4), rng.Intn(1<<16), rng.Intn(256), rng.Intn(256))
		}
		return ops
	}
}

// decode builds an op from small integers: rowSel picks an edge row when its
// top bit is set and any row of the bank otherwise; count is eighths of the
// threshold and dwell 200 ns steps of row-open time.
func (w *disturbWorld) decode(kind, bank, rowSel, count, dwell int) distOp {
	row := rowSel % w.tc.g.RowsPerBank
	if rowSel&0x8000 != 0 {
		row = w.edge[rowSel%len(w.edge)]
	}
	return distOp{kind: kind, bank: bank, row: row, count: w.burst(count % 96), openNs: int64(dwell) * 200}
}

// TestDisturbanceMatchesReference holds the chunked dense accumulators to the
// hash-table path they replaced: the same flips in the same order and the
// same value in every accumulator after every step, on DIMMs A-F and the
// test profile, with and without spares, at the ends of the bank, of every
// subarray and of the chunks.
func TestDisturbanceMatchesReference(t *testing.T) {
	for i, tc := range disturbCases() {
		t.Run(tc.name, func(t *testing.T) {
			if err := disturbDiffRun(tc, scriptedDisturbOps); err != nil {
				t.Error(err)
			}
			if err := disturbDiffRun(tc, randomDisturbOps(rand.New(rand.NewSource(int64(21+i))), 400)); err != nil {
				t.Error(err)
			}
		})
	}
}

// FuzzDisturbanceMatchesReference decodes five bytes per op — kind and bank,
// a 16-bit row selector, count and dwell — and at most 64 ops a run.
func FuzzDisturbanceMatchesReference(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0x01, 0x80, 9, 0, 0, 0x01, 0x80, 9, 10, 0xf0 | distWindow, 0, 0, 0, 0, 0, 0x01, 0x80, 9, 0})
	f.Add(uint8(3), []byte{0xf0 | distFill, 0x04, 0x80, 0, 0, 0, 0x04, 0x80, 40, 0, 0xf0 | distDirected, 0x05, 0x80, 0, 0, 0, 0x05, 0x80, 12, 255})
	f.Add(uint8(14), []byte{3 << 2, 0xff, 0xff, 95, 0, 3 << 2, 0xff, 0xff, 95, 0, 3 << 2, 0xfe, 0xff, 95, 0, 3 << 2, 0xfe, 0xff, 95, 0})
	cases := disturbCases()
	f.Fuzz(func(t *testing.T, caseSel uint8, data []byte) {
		tc := cases[int(caseSel)%len(cases)]
		err := disturbDiffRun(tc, func(w *disturbWorld) []distOp {
			var ops []distOp
			for ; len(data) >= 5 && len(ops) < 64; data = data[5:] {
				kind := distAct
				if k := int(data[0]) & 3; data[0]>>4 == 0xf {
					kind = k // a high nibble of f selects the other kinds
				}
				ops = append(ops, w.decode(kind, int(data[0])>>2&3, int(data[1])|int(data[2])<<8, int(data[3]), int(data[4])))
			}
			return ops
		})
		if err != nil {
			t.Error(err)
		}
	})
}
