package addr

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/geometry"
)

// SpareRow describes one manufacturing spare row inside a bank (§6). Spares
// are extra wordlines that are not part of the externally-addressable row
// space; a spare physically sits next to an anchor position inside one
// subarray, which determines its electrical adjacency.
type SpareRow struct {
	// Anchor is the internal row index the spare is physically adjacent
	// to; the spare's subarray is the anchor's subarray.
	Anchor int
}

// Repair records one row repair: activations of the defective internal row
// are redirected to a spare.
type Repair struct {
	Bank geometry.BankID
	// From is the defective internal row index being repaired.
	From int
	// Spare describes where the replacement physically lives.
	Spare SpareRow
}

// InterSubarray reports whether the repair crosses a subarray boundary,
// the case that threatens subarray group isolation (§6).
func (r Repair) InterSubarray(g geometry.Geometry) bool {
	return r.From/g.RowsPerSubarray != r.Spare.Anchor/g.RowsPerSubarray
}

// RepairTable models a module's row repairs. Real DIMMs keep this table
// private; Siloz infers repaired rows via address-translation drivers, which
// the simulation represents by letting system software inspect the table.
type RepairTable struct {
	g       geometry.Geometry
	byBank  map[geometry.BankID]map[int]SpareRow // From -> Spare
	repairs []Repair
}

// NewRepairTable builds an empty repair table for g.
func NewRepairTable(g geometry.Geometry) *RepairTable {
	return &RepairTable{g: g, byBank: make(map[geometry.BankID]map[int]SpareRow)}
}

// Add records a repair. It returns an error if the row is already repaired
// or either index is out of range.
func (t *RepairTable) Add(r Repair) error {
	if r.From < 0 || r.From >= t.g.RowsPerBank {
		return fmt.Errorf("addr: repair source row %d out of range", r.From)
	}
	if r.Spare.Anchor < 0 || r.Spare.Anchor >= t.g.RowsPerBank {
		return fmt.Errorf("addr: spare anchor %d out of range", r.Spare.Anchor)
	}
	m := t.byBank[r.Bank]
	if m == nil {
		m = make(map[int]SpareRow)
		t.byBank[r.Bank] = m
	}
	if _, dup := m[r.From]; dup {
		return fmt.Errorf("addr: row %d on %v already repaired", r.From, r.Bank)
	}
	m[r.From] = r.Spare
	t.repairs = append(t.repairs, r)
	return nil
}

// Lookup returns the spare serving an internal row, if the row is repaired.
func (t *RepairTable) Lookup(bank geometry.BankID, internal int) (SpareRow, bool) {
	s, ok := t.byBank[bank][internal]
	return s, ok
}

// Repairs returns all recorded repairs in insertion order.
func (t *RepairTable) Repairs() []Repair {
	out := make([]Repair, len(t.repairs))
	copy(out, t.repairs)
	return out
}

// InterSubarrayRepairs returns only the repairs that cross subarray
// boundaries — the ones whose pages Siloz must offline to preserve
// isolation (§6).
func (t *RepairTable) InterSubarrayRepairs() []Repair {
	var out []Repair
	for _, r := range t.repairs {
		if r.InterSubarray(t.g) {
			out = append(out, r)
		}
	}
	return out
}

// RepairMode selects where generated repairs place their spares.
type RepairMode int

const (
	// RepairIntraSubarray places every spare in the defective row's own
	// subarray (the behaviour §7.1 observed on the evaluation DIMMs).
	RepairIntraSubarray RepairMode = iota
	// RepairInterSubarray places every spare in a different subarray —
	// the worst case of §6.
	RepairInterSubarray
)

// GenerateRepairs populates a repair table with a fraction of rows repaired
// (the paper cites ~0.15% observed on server DIMMs), using the given mode
// and RNG. Repairs are spread uniformly over banks and rows.
func GenerateRepairs(g geometry.Geometry, mode RepairMode, fraction float64, rng *rand.Rand) (*RepairTable, error) {
	if fraction < 0 || fraction > 1 {
		return nil, fmt.Errorf("addr: repair fraction %v out of [0,1]", fraction)
	}
	t := NewRepairTable(g)
	perBank := int(float64(g.RowsPerBank) * fraction)
	sub := g.RowsPerSubarray
	nsub := g.SubarraysPerBank()
	for flat := 0; flat < g.TotalBanks(); flat++ {
		bank := geometry.BankFromFlat(g, flat)
		used := make(map[int]bool)
		for i := 0; i < perBank; i++ {
			from := rng.Intn(g.RowsPerBank)
			if used[from] {
				continue // tolerate slight undershoot rather than loop
			}
			used[from] = true
			var anchor int
			switch mode {
			case RepairIntraSubarray:
				anchor = (from/sub)*sub + rng.Intn(sub)
			case RepairInterSubarray:
				if nsub < 2 {
					return nil, fmt.Errorf("addr: inter-subarray repairs need >=2 subarrays")
				}
				other := rng.Intn(nsub - 1)
				if other >= from/sub {
					other++
				}
				anchor = other*sub + rng.Intn(sub)
			default:
				return nil, fmt.Errorf("addr: unknown repair mode %d", mode)
			}
			if err := t.Add(Repair{Bank: bank, From: from, Spare: SpareRow{Anchor: anchor}}); err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(t.repairs, func(i, j int) bool {
		a, b := t.repairs[i], t.repairs[j]
		if a.Bank != b.Bank {
			return a.Bank.Flat(g) < b.Bank.Flat(g)
		}
		return a.From < b.From
	})
	return t, nil
}
