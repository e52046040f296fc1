package mitigation

import "fmt"

// SilverBullet implements counter-based victim-row refresh (Yağlıkçı et
// al., arXiv 2106.07084): each bank keeps a bounded table of aggressor
// activation counters; a counter crossing the threshold triggers a
// proactive refresh of that aggressor's neighbourhood and resets the
// counter. Two edge cases from the security analysis are modelled
// faithfully:
//
//   - Safe eviction: when the table is full, the lowest-count entry is
//     evicted only after its neighbourhood is refreshed — otherwise an
//     attacker rotating more aggressors than table entries could hammer
//     an evicted row's victims untracked. Safe evictions draw from the
//     same refresh budget, so decoy-heavy (Blacksmith-style) patterns
//     translate table pressure into refresh cost.
//   - Budget exhaustion: a per-bank, per-window refresh budget models the
//     bounded refresh bandwidth of a real controller. Once a bank's
//     budget is spent the defense goes blind for the rest of the window;
//     the event is counted and surfaced through Health as a wrapped
//     ErrBudgetExhausted.
type SilverBullet struct {
	threshold float64
	budget    int // per bank per window; 0 = unlimited

	table aggressorTable
	spent []int
	blind []bool // bank exhausted this window

	// Lifetime ledgers, sharded by bank like the table so parallel
	// single-goroutine-per-bank callers never share a counter word.
	fired     []int
	exhausted []int
}

// NewSilverBullet builds a Silver Bullet instance for a scope of banks. It
// panics on tableSize < 1; Spec.RowDefense builds it at the Default*
// tuning.
func NewSilverBullet(banks, tableSize int, threshold float64, budget int) *SilverBullet {
	return &SilverBullet{
		threshold: threshold,
		budget:    budget,
		table:     newAggressorTable(banks, tableSize),
		spent:     make([]int, banks),
		blind:     make([]bool, banks),
		fired:     make([]int, banks),
		exhausted: make([]int, banks),
	}
}

// Name implements Mitigation.
func (m *SilverBullet) Name() string { return "silver-bullet" }

// fire spends one refresh on row's neighbourhood in bank, unless the
// bank's window budget is exhausted — in which case the defense goes
// blind and the exhaustion is recorded. Returns whether the refresh
// actually happened.
func (m *SilverBullet) fire(bank, row int, refresh RefreshFn) bool {
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

// OnActivate implements Mitigation.
func (m *SilverBullet) OnActivate(ev Activation, refresh RefreshFn) {
	t := &m.table
	c := float64(ev.Count)
	at := t.find(ev.Bank, ev.Row)
	switch {
	case at >= 0:
		t.counts[at] += c
	case t.full(ev.Bank):
		// Safe-evict the lowest (count, row) entry: refresh its
		// neighbourhood (budget permitting), then hand its place over.
		at = t.lowest(ev.Bank)
		m.fire(ev.Bank, int(t.rows[at]), refresh)
		t.replace(at, ev.Row, c)
	default:
		at = t.insert(ev.Bank, ev.Row, c)
	}
	if t.counts[at] >= m.threshold {
		m.fire(ev.Bank, ev.Row, refresh)
		t.remove(ev.Bank, at)
	}
}

// OnWindowEnd implements Mitigation: the refresh window restores every
// row's charge, so counters and budgets reset. Blindness is per window,
// but past exhaustions stay in the overhead ledger and in Health.
func (m *SilverBullet) OnWindowEnd() {
	m.table.resetAll()
	clear(m.spent)
	clear(m.blind)
}

// Overhead implements Mitigation.
func (m *SilverBullet) Overhead() Overhead {
	var ov Overhead
	for i := range m.fired {
		ov.NeighborRefreshes += m.fired[i]
		ov.Exhaustions += m.exhausted[i]
	}
	return ov
}

// Health implements Mitigation.
func (m *SilverBullet) Health() error {
	if n := m.Overhead().Exhaustions; n > 0 {
		return fmt.Errorf("silver bullet: defense went blind in %d bank-window(s): %w",
			n, ErrBudgetExhausted)
	}
	return nil
}
