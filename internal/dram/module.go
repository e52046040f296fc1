package dram

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/addr"
	"repro/internal/geometry"
	"repro/internal/mitigation"
)

// Flip records one committed Rowhammer bit flip.
type Flip struct {
	// Bank locates the flip.
	Bank geometry.BankID
	// MediaRow is the externally-addressed row whose data was corrupted.
	MediaRow int
	// Side is the internal half-row the weak cell lives in.
	Side addr.Side
	// Bit is the bit index within the half-row (0 .. RowBytes/2*8).
	Bit int
	// AggressorMediaRow is the media row whose hammering caused the flip.
	AggressorMediaRow int
	// Window is the refresh-window index in which the flip committed.
	Window int
}

// ByteOffset returns the flipped bit's byte offset within the 8 KiB
// external row (A-side cells occupy the first half, B-side the second).
func (f Flip) ByteOffset(g geometry.Geometry) int {
	half := 0
	if f.Side == addr.SideB {
		half = g.RowBytes / 2
	}
	return half + f.Bit/8
}

func (f Flip) String() string {
	return fmt.Sprintf("flip{%s row %d side %s bit %d by row %d win %d}",
		f.Bank, f.MediaRow, f.Side, f.Bit, f.AggressorMediaRow, f.Window)
}

// spare is a per-bank manufacturing spare row in use by a repair.
type spare struct {
	virt   int // virtual internal index (>= RowsPerBank)
	source int // the defective internal row it replaces
	anchor int // physical position it is adjacent to
}

// bankState is the per-bank disturbance bookkeeping.
type bankState struct {
	id  geometry.BankID
	idx int // dense index rank*BanksPerRank+bank (mitigation scope)

	// disturb[side] accumulates weighted aggressor activations per
	// victim internal (virtual) row index within the current window.
	disturb [2]disturbTable
	// acts is the bank's activation count this window (budget check).
	acts int
	// totalActs tallies the bank's lifetime activations, defenses or not.
	// Kept per bank — like every other hot-path accumulator — so parallel
	// bank-disjoint traffic never shares a counter word.
	totalActs int64

	// Repairs affecting this bank. hasSpares gates every spare lookup on
	// the hot path: most banks have no repairs, and the per-neighbour
	// sparesAtAnchor probe is pure overhead for them.
	hasSpares      bool
	spareBySource  map[int]*spare
	sparesAtAnchor map[int][]*spare
}

// newBankState builds the bookkeeping of a bank of rows rows. Both sides'
// chunk indexes come from one allocation.
func newBankState(id geometry.BankID, idx, rows int) *bankState {
	bs := &bankState{id: id, idx: idx}
	n := disturbIndexLen(rows)
	index := make([]uint16, 2*n)
	bs.disturb[0] = disturbTable{index: index[:n:n], rows: rows}
	bs.disturb[1] = disturbTable{index: index[n:], rows: rows}
	return bs
}

// Module models one DIMM: data storage plus the disturbance state of its
// ranks' banks.
type Module struct {
	g       geometry.Geometry
	prof    Profile
	im      *addr.InternalMapper
	repairs *addr.RepairTable
	socket  int
	dimm    int

	// actMu serializes the activation plane: bank disturbance state, the
	// flip log, the refresh window, and the defense chain (PARA draws from
	// one per-module coin stream). Concurrent hammering threads — the
	// inter-VM attack model — contend here the way real DDR commands
	// contend on the module's command bus.
	actMu    sync.Mutex
	banks    []*bankState // indexed rank*BanksPerRank+bank, nil until touched
	rowsMu   sync.Mutex   // guards rows and the bytes of their slots: EPT walks from parallel reps share it
	rows     *rowIndex    // which arena slots hold this DIMM's materialized rows
	window   int
	flips    []Flip
	cells    []weakCell // commitFlips' weak-cell buffer, under actMu
	cellSeen []uint64   // commitFlips' clear duplicate bitset, under actMu; nil until the first crossing

	// defenses observe every activation burst. The profile's in-DRAM TRR
	// sampler (when TRRTableSize > 0) is the first member; AttachDefense
	// appends controller- or hypervisor-provided mitigations. refreshFn is
	// the pre-bound victim-refresh sink handed to every OnActivate call,
	// so the hot path never allocates a closure.
	defenses  mitigation.Chain
	refreshFn mitigation.RefreshFn
}

// NewModule builds a standalone DIMM with the given profile, whose rows live
// in an arena of its own. repairs may be nil.
func NewModule(g geometry.Geometry, prof Profile, socket, dimm int, repairs *addr.RepairTable) (*Module, error) {
	return newModule(g, prof, socket, dimm, repairs, newRowArena(g), nil)
}

// newModule builds a DIMM whose rows live in arena and are counted in census
// (nil: no Memory to count them for).
func newModule(g geometry.Geometry, prof Profile, socket, dimm int, repairs *addr.RepairTable, arena *rowArena, census *rowCensus) (*Module, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if disturbIndexLen(g.RowsPerBank) > math.MaxUint16 {
		return nil, fmt.Errorf("dram: a bank of %d rows has more %d-row chunks than the disturbance index can number", g.RowsPerBank, disturbChunkRows)
	}
	m := &Module{
		g:       g,
		prof:    prof,
		im:      addr.NewInternalMapper(g, prof.Transforms),
		repairs: repairs,
		socket:  socket,
		dimm:    dimm,
		banks:   make([]*bankState, g.BanksPerDIMM()),
		rows:    newRowIndex(g, arena, census),
	}
	m.refreshFn = m.refreshNeighbourhood
	if prof.TRRTableSize > 0 {
		m.defenses = append(m.defenses, mitigation.NewTRR(g.BanksPerDIMM(), prof.TRRTableSize, prof.TRRInterval))
	}
	return m, nil
}

// AttachDefense adds a mitigation to the module's observation chain. It
// fires on every activation burst alongside any profile-provided TRR
// sampler; injected refreshes clear accumulated disturbance around the
// target row. Attach before traffic starts — the chain is not locked.
func (m *Module) AttachDefense(d mitigation.Mitigation) {
	if d != nil {
		m.defenses = append(m.defenses, d)
	}
}

// attached is the defense chain past the profile's in-DRAM TRR: the
// defenses AttachDefense deployed, which the overhead ledger bills.
func (m *Module) attached() mitigation.Chain {
	if m.prof.TRRTableSize > 0 {
		return m.defenses[1:]
	}
	return m.defenses
}

// DefenseOverhead sums the overhead of every attached defense; the DIMM's
// own TRR is part of the part, not a deployed defense, and is not billed.
func (m *Module) DefenseOverhead() mitigation.Overhead {
	m.actMu.Lock()
	defer m.actMu.Unlock()
	return m.attached().Overhead()
}

// DefenseHealth reports the first degraded attached defense, nil when all
// are intact.
func (m *Module) DefenseHealth() error {
	m.actMu.Lock()
	defer m.actMu.Unlock()
	return m.attached().Health()
}

// TotalActivations returns the count of activations observed over the
// module's lifetime, independent of any defense being attached; the
// mitigation matrix normalizes refresh energy against it.
func (m *Module) TotalActivations() int64 {
	m.actMu.Lock()
	defer m.actMu.Unlock()
	var n int64
	for _, bs := range m.banks {
		if bs != nil {
			n += bs.totalActs
		}
	}
	return n
}

// InternalMapper exposes the module's internal row address mapping; Siloz's
// translation drivers use it when classifying isolation-violating rows (§6).
func (m *Module) InternalMapper() *addr.InternalMapper { return m.im }

// Window returns the current refresh-window index. Refresh advances it under
// actMu, and one tenant's window end runs beside another's mediated access
// (which reads it to scope its rate limit), so the read takes the lock too.
func (m *Module) Window() int {
	m.actMu.Lock()
	defer m.actMu.Unlock()
	return m.window
}

// owns reports whether the bank belongs to this module.
func (m *Module) owns(b geometry.BankID) bool {
	return b.Socket == m.socket && b.DIMM == m.dimm && b.Valid(m.g)
}

func (m *Module) bank(b geometry.BankID) *bankState {
	idx := b.Rank*m.g.BanksPerRank + b.Bank
	bs := m.banks[idx]
	if bs == nil {
		bs = newBankState(b, idx, m.g.RowsPerBank)
		m.loadRepairs(bs)
		m.banks[idx] = bs
	}
	return bs
}

// loadRepairs indexes the module's repairs for one bank.
func (m *Module) loadRepairs(bs *bankState) {
	if m.repairs == nil {
		return
	}
	bs.spareBySource = make(map[int]*spare)
	bs.sparesAtAnchor = make(map[int][]*spare)
	var sources []int
	for _, r := range m.repairs.Repairs() {
		if r.Bank == bs.id {
			sources = append(sources, r.From)
		}
	}
	sort.Ints(sources)
	bs.hasSpares = len(sources) > 0
	for side := range bs.disturb {
		bs.disturb[side].spares = make([]float64, len(sources))
	}
	for i, src := range sources {
		sp, _ := m.repairs.Lookup(bs.id, src)
		s := &spare{virt: m.g.RowsPerBank + i, source: src, anchor: sp.Anchor}
		bs.spareBySource[src] = s
		bs.sparesAtAnchor[sp.Anchor] = append(bs.sparesAtAnchor[sp.Anchor], s)
	}
}

// internalTarget resolves a media row to the internal (virtual) row index
// that its activation actually drives on one side, following any repair.
func (m *Module) internalTarget(bs *bankState, mediaRow int, side addr.Side) (virt int, anchor int) {
	internal := m.im.InternalRow(bs.id, mediaRow, side)
	if bs.hasSpares {
		if sp, ok := bs.spareBySource[internal]; ok {
			return sp.virt, sp.anchor
		}
	}
	return internal, internal
}

// mediaRowOf maps an internal (virtual) victim index back to the media row
// whose data it stores on the given side.
func (m *Module) mediaRowOf(bs *bankState, virt int, side addr.Side) int {
	if virt >= m.g.RowsPerBank {
		for _, sp := range bs.spareBySource {
			if sp.virt == virt {
				return m.im.MediaRow(bs.id, sp.source, side)
			}
		}
		panic("dram: unknown spare virtual index")
	}
	return m.im.MediaRow(bs.id, virt, side)
}

// ActivateRow issues count activations of a media row, each holding the row
// open for openNs nanoseconds (RowPress exposure). Disturbance accrues to
// neighbouring rows within the aggressor's subarray on both internal sides.
func (m *Module) ActivateRow(b geometry.BankID, mediaRow, count int, openNs int64) error {
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
		bs.disturb[side].zero(virt)
		m.disturbNeighbours(bs, side, virt, anchor, eff, mediaRow)
	}

	m.observe(bs, mediaRow, count, openNs)
	return nil
}

// blastSpan returns the rows within the blast radius of the row at anchor,
// clamped to its subarray: rows of other subarrays are electrically isolated
// (§2.5), and a subarray never runs past the bank (RowsPerBank is a multiple
// of RowsPerSubarray). The one divide of a neighbourhood walk is here.
func (m *Module) blastSpan(anchor int) (lo, hi int) {
	first := anchor - anchor%m.g.RowsPerSubarray
	return max(anchor-m.prof.BlastRadius, first), min(anchor+m.prof.BlastRadius, first+m.g.RowsPerSubarray-1)
}

// disturbNeighbours adds disturbance around an aggressor at `anchor` (the
// aggressor itself is the virtual row aggVirt and is skipped as a victim),
// in ascending row order.
func (m *Module) disturbNeighbours(bs *bankState, side addr.Side, aggVirt, anchor int, eff float64, aggMediaRow int) {
	t := &bs.disturb[side]
	lo, hi := m.blastSpan(anchor)
	var vals *[disturbChunkRows]float64 // the chunk pos lies in
	for pos := lo; pos <= hi; pos++ {
		if vals == nil || pos&(disturbChunkRows-1) == 0 {
			vals = t.chunk(pos)
		}
		d := pos - anchor
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
				m.accrue(bs, side, &vals[pos&(disturbChunkRows-1)], pos, w*eff, aggMediaRow)
			}
		}
		// Spare victims anchored here.
		if bs.hasSpares {
			for _, sp := range bs.sparesAtAnchor[pos] {
				if sp.virt != aggVirt {
					m.accrue(bs, side, &t.spares[sp.virt-t.rows], sp.virt, w*eff, aggMediaRow)
				}
			}
		}
	}
}

// accrue adds disturbance to a victim's accumulator d and commits flips on
// threshold.
func (m *Module) accrue(bs *bankState, side addr.Side, d *float64, virt int, amount float64, aggMediaRow int) {
	*d += amount
	if *d < m.prof.HammerThreshold {
		return
	}
	// Threshold exceeded: the victim's weak cells discharge. Reset the
	// accumulation; committing is idempotent for already-failed cells.
	*d = 0
	m.commitFlips(bs, side, virt, aggMediaRow)
}

// commitFlips sets each weak cell of a victim half-row to its fail value.
func (m *Module) commitFlips(bs *bankState, side addr.Side, virt int, aggMediaRow int) {
	bits := m.g.RowBytes / 2 * 8
	if m.cellSeen == nil {
		m.cellSeen = newCellBitset(bits)
	}
	cells := weakCells(m.cells[:0], m.cellSeen, m.prof, m.socket, m.dimm, bs.id, side, virt, bits)
	m.cells = cells
	if len(cells) == 0 {
		return
	}
	mediaRow := m.mediaRowOf(bs, virt, side)
	m.rowsMu.Lock()
	defer m.rowsMu.Unlock()
	row := m.rowLocked(bs.id, mediaRow)
	halfBase := 0
	if side == addr.SideB {
		halfBase = m.g.RowBytes / 2
	}
	for _, c := range cells {
		byteOff := halfBase + c.bit/8
		mask := byte(1) << (c.bit % 8)
		cur := row[byteOff]&mask != 0
		if cur == c.failsTo {
			continue // already at fail value; nothing observable
		}
		if c.failsTo {
			row[byteOff] |= mask
		} else {
			row[byteOff] &^= mask
		}
		m.flips = append(m.flips, Flip{
			Bank: bs.id, MediaRow: mediaRow, Side: side, Bit: c.bit,
			AggressorMediaRow: aggMediaRow, Window: m.window,
		})
	}
}

// observe tallies an activation burst and feeds it to the defense chain.
// The tally advances even with an empty chain (a TRRTableSize of 0 used to
// short-circuit this path entirely, silently starving attached defenses
// and the activation ledger on TRR-less profiles).
func (m *Module) observe(bs *bankState, mediaRow, count int, openNs int64) {
	bs.totalActs += int64(count)
	if len(m.defenses) == 0 {
		return
	}
	m.defenses.OnActivate(mitigation.Activation{
		Bank: bs.idx, Row: mediaRow, Count: count, OpenNs: openNs,
	}, m.refreshFn)
}

// refreshNeighbourhood restores the charge of every row in the blast
// radius of mediaRow in the bank at flat index bankIdx — the victim-refresh
// sink for defense-injected directives. Clearing both internal sides'
// neighbourhoods (including spares overlaying them) matches what a
// row-granularity refresh does in hardware.
func (m *Module) refreshNeighbourhood(bankIdx, mediaRow int) {
	bs := m.banks[bankIdx]
	if bs == nil || mediaRow < 0 || mediaRow >= m.g.RowsPerBank {
		return
	}
	for _, side := range [...]addr.Side{addr.SideA, addr.SideB} {
		_, anchor := m.internalTarget(bs, mediaRow, side)
		lo, hi := m.blastSpan(anchor)
		for pos := lo; pos <= hi; pos++ {
			bs.disturb[side].zero(pos)
			if bs.hasSpares {
				for _, sp := range bs.sparesAtAnchor[pos] {
					bs.disturb[side].zero(sp.virt)
				}
			}
		}
	}
}

// Refresh ends the current 64 ms refresh window: every row's charge is
// restored, activation counters reset, and defense per-window state
// (sampler tables, refresh budgets) cleared. Flips that already committed
// persist in storage.
func (m *Module) Refresh() {
	m.actMu.Lock()
	defer m.actMu.Unlock()
	for _, bs := range m.banks {
		if bs == nil {
			continue
		}
		bs.disturb[0].reset()
		bs.disturb[1].reset()
		bs.acts = 0
	}
	m.defenses.OnWindowEnd()
	m.window++
}

// Flips returns all flips committed so far.
func (m *Module) Flips() []Flip {
	m.actMu.Lock()
	defer m.actMu.Unlock()
	out := make([]Flip, len(m.flips))
	copy(out, m.flips)
	return out
}

// ResetFlips clears the flip log (storage corruption remains).
func (m *Module) ResetFlips() {
	m.actMu.Lock()
	defer m.actMu.Unlock()
	m.flips = nil
}

// rowLocked returns the backing storage of a media row, allocating zeroed
// bytes on first touch. Caller holds rowsMu.
func (m *Module) rowLocked(b geometry.BankID, mediaRow int) []byte {
	idx := m.rows.bankIndex(b.Rank, b.Bank)
	if row := m.rows.row(idx, mediaRow); row != nil {
		return row
	}
	return m.rows.rowAlloc(idx, mediaRow, m.rows.census.locate(b, mediaRow))
}

// WriteRow stores data into a row starting at column col. The copy itself
// runs under the row lock, so a concurrent reader of the same row (a live
// migration round copying a page the guest is still writing) observes
// whole cache lines, never torn ones.
func (m *Module) WriteRow(b geometry.BankID, mediaRow, col int, data []byte) error {
	if !m.owns(b) || mediaRow < 0 || mediaRow >= m.g.RowsPerBank {
		return fmt.Errorf("dram: write target %v row %d invalid", b, mediaRow)
	}
	if col < 0 || col+len(data) > m.g.RowBytes {
		return fmt.Errorf("dram: write [%d,%d) outside row", col, col+len(data))
	}
	m.rowsMu.Lock()
	copy(m.rowLocked(b, mediaRow)[col:], data)
	m.rowsMu.Unlock()
	return nil
}

// ReadRow copies a row's bytes starting at column col into buf. Reading an
// untouched row yields zeros without materializing backing storage.
func (m *Module) ReadRow(b geometry.BankID, mediaRow, col int, buf []byte) error {
	if !m.owns(b) || mediaRow < 0 || mediaRow >= m.g.RowsPerBank {
		return fmt.Errorf("dram: read target %v row %d invalid", b, mediaRow)
	}
	if col < 0 || col+len(buf) > m.g.RowBytes {
		return fmt.Errorf("dram: read [%d,%d) outside row", col, col+len(buf))
	}
	m.rowsMu.Lock()
	if r := m.rows.row(m.rows.bankIndex(b.Rank, b.Bank), mediaRow); r != nil {
		copy(buf, r[col:])
	} else {
		clear(buf)
	}
	m.rowsMu.Unlock()
	return nil
}
