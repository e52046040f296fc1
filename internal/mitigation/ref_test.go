package mitigation

import "fmt"

// This file holds the retired rowcount-backed SilverBullet and TRR bodies,
// verbatim, as the differential oracles for the dense aggressorTable
// (TestAggressorTableMatchesReference, FuzzAggressorTableMatchesReference).
// The one substitution is the table itself: rowcount.Table.Range was deleted
// with its last caller, so the references run over refTable, a map with the
// same six methods. Map iteration order is as arbitrary as slot order was;
// the bodies never depended on it (total-order min tie-break, order-free
// refresh sinks).

// refTable is the map-backed stand-in for the rowcount.Table[float64] the
// reference bodies were written against.
type refTable struct{ m map[int]float64 }

func (t *refTable) Get(row int) (float64, bool) { v, ok := t.m[row]; return v, ok }
func (t *refTable) Len() int                    { return len(t.m) }
func (t *refTable) Delete(row int)              { delete(t.m, row) }
func (t *refTable) Reset()                      { clear(t.m) }

func (t *refTable) Add(row int, delta float64) float64 {
	if t.m == nil {
		t.m = map[int]float64{}
	}
	t.m[row] += delta
	return t.m[row]
}

func (t *refTable) Range(fn func(row int, v float64) bool) {
	for r, v := range t.m {
		if !fn(r, v) {
			return
		}
	}
}

// refSilverBullet is the pre-aggressorTable SilverBullet.
type refSilverBullet struct {
	size      int
	threshold float64
	budget    int // per bank per window; 0 = unlimited

	tables []refTable
	spent  []int
	blind  []bool // bank exhausted this window

	fired     []int
	exhausted []int
}

func newRefSilverBullet(banks, tableSize int, threshold float64, budget int) *refSilverBullet {
	return &refSilverBullet{
		size:      tableSize,
		threshold: threshold,
		budget:    budget,
		tables:    make([]refTable, banks),
		spent:     make([]int, banks),
		blind:     make([]bool, banks),
		fired:     make([]int, banks),
		exhausted: make([]int, banks),
	}
}

func (m *refSilverBullet) Name() string { return "silver-bullet" }

func (m *refSilverBullet) fire(bank, row int, refresh RefreshFn) bool {
	if m.budget > 0 && m.spent[bank] >= m.budget {
		if !m.blind[bank] {
			m.blind[bank] = true
			m.exhausted[bank]++
		}
		return false
	}
	m.spent[bank]++
	m.fired[bank]++
	if refresh != nil {
		refresh(bank, row)
	}
	return true
}

func (m *refSilverBullet) OnActivate(ev Activation, refresh RefreshFn) {
	tb := &m.tables[ev.Bank]
	if _, tracked := tb.Get(ev.Row); !tracked && tb.Len() >= m.size {
		// Table full: safe-evict the lowest-count entry. The min scan is
		// slot-order Range with a total-order tie-break, so the choice is
		// iteration-order independent.
		minRow, minC := -1, 0.0
		tb.Range(func(r int, rc float64) bool {
			if minRow == -1 || rc < minC || (rc == minC && r < minRow) {
				minRow, minC = r, rc
			}
			return true
		})
		m.fire(ev.Bank, minRow, refresh)
		tb.Delete(minRow)
	}
	if v := tb.Add(ev.Row, float64(ev.Count)); v >= m.threshold {
		m.fire(ev.Bank, ev.Row, refresh)
		tb.Delete(ev.Row)
	}
}

func (m *refSilverBullet) OnWindowEnd() {
	for i := range m.tables {
		m.tables[i].Reset()
		m.spent[i] = 0
		m.blind[i] = false
	}
}

func (m *refSilverBullet) Overhead() Overhead {
	var ov Overhead
	for i := range m.fired {
		ov.NeighborRefreshes += m.fired[i]
		ov.Exhaustions += m.exhausted[i]
	}
	return ov
}

func (m *refSilverBullet) Health() error {
	if n := m.Overhead().Exhaustions; n > 0 {
		return fmt.Errorf("silver bullet: defense went blind in %d bank-window(s): %w",
			n, ErrBudgetExhausted)
	}
	return nil
}

// refTRR is the pre-aggressorTable TRR.
type refTRR struct {
	size     int
	interval int

	tables []refTable
	acts   []int
	fired  []int // per-bank injected refreshes (lifetime ledger)
}

func newRefTRR(banks, tableSize, interval int) *refTRR {
	return &refTRR{
		size:     tableSize,
		interval: interval,
		tables:   make([]refTable, banks),
		acts:     make([]int, banks),
		fired:    make([]int, banks),
	}
}

func (m *refTRR) Name() string { return "trr" }

func (m *refTRR) OnActivate(ev Activation, refresh RefreshFn) {
	tb := &m.tables[ev.Bank]
	c := float64(ev.Count)
	if _, ok := tb.Get(ev.Row); ok {
		tb.Add(ev.Row, c)
	} else if tb.Len() < m.size {
		tb.Add(ev.Row, c)
	} else {
		// Replace the lowest-count entry only if the incoming burst is
		// larger. The min scan is slot-order Range, but the tie-break is
		// a total order, so the result is iteration-order independent.
		minRow, minC := -1, 0.0
		tb.Range(func(r int, rc float64) bool {
			if minRow == -1 || rc < minC || (rc == minC && r < minRow) {
				minRow, minC = r, rc
			}
			return true
		})
		if c > minC {
			tb.Delete(minRow)
			tb.Add(ev.Row, c)
		}
	}
	m.acts[ev.Bank] += ev.Count
	if m.acts[ev.Bank] >= m.interval {
		tb.Range(func(row int, _ float64) bool {
			m.fired[ev.Bank]++
			if refresh != nil {
				refresh(ev.Bank, row)
			}
			return true
		})
		tb.Reset()
		m.acts[ev.Bank] = 0
	}
}

func (m *refTRR) OnWindowEnd() {
	for i := range m.tables {
		m.tables[i].Reset()
		m.acts[i] = 0
	}
}

func (m *refTRR) Overhead() Overhead {
	var ov Overhead
	for _, n := range m.fired {
		ov.NeighborRefreshes += n
	}
	return ov
}

func (m *refTRR) Health() error { return nil }
