package mitigation

// TRR is the in-DRAM target-row-refresh sampler that used to live inside
// dram.Module, generalized behind the Mitigation interface: each bank
// samples up to tableSize aggressor rows per refresh interval, and every
// interval activations it refreshes the sampled rows' neighbourhoods and
// clears the table. The replace-lowest-only-if-larger insertion rule is
// the sampler weakness Blacksmith-class patterns exploit (§2.5): heavy
// decoy rows pin the table while true aggressors hammer unsampled.
//
// The port preserves the original module logic exactly — same insertion,
// same total-order min tie-break, same fire cadence — so fixed-seed flip
// outputs are bit-identical to the pre-refactor implementation.
//
// All state — table, activation counters, the refresh ledger — is sharded by
// bank, matching the simulation's concurrency contract: each bank is
// touched by one goroutine at a time, banks may be touched in parallel.
type TRR struct {
	interval int

	table aggressorTable
	acts  []int
	fired []int // per-bank injected refreshes (lifetime ledger)
}

// NewTRR builds a TRR sampler for a scope of banks with the given table
// size and refresh interval (activations between refresh events). It panics
// on tableSize < 1.
func NewTRR(banks, tableSize, interval int) *TRR {
	return &TRR{
		interval: interval,
		table:    newAggressorTable(banks, tableSize),
		acts:     make([]int, banks),
		fired:    make([]int, banks),
	}
}

// Name implements Mitigation.
func (m *TRR) Name() string { return "trr" }

// OnActivate implements Mitigation.
func (m *TRR) OnActivate(ev Activation, refresh RefreshFn) {
	t := &m.table
	c := float64(ev.Count)
	if at := t.find(ev.Bank, ev.Row); at >= 0 {
		t.counts[at] += c
	} else if !t.full(ev.Bank) {
		t.insert(ev.Bank, ev.Row, c)
	} else if low := t.lowest(ev.Bank); c > t.counts[low] {
		// Replace the lowest (count, row) entry only if the incoming
		// burst is larger.
		t.replace(low, ev.Row, c)
	}
	m.acts[ev.Bank] += ev.Count
	if m.acts[ev.Bank] >= m.interval {
		rows := t.bankRows(ev.Bank)
		m.fired[ev.Bank] += len(rows)
		if refresh != nil {
			for _, row := range rows {
				refresh(ev.Bank, int(row))
			}
		}
		t.reset(ev.Bank)
		m.acts[ev.Bank] = 0
	}
}

// OnWindowEnd implements Mitigation.
func (m *TRR) OnWindowEnd() {
	m.table.resetAll()
	clear(m.acts)
}

// Overhead implements Mitigation.
func (m *TRR) Overhead() Overhead {
	var ov Overhead
	for _, n := range m.fired {
		ov.NeighborRefreshes += n
	}
	return ov
}

// Health implements Mitigation; the sampler never degrades (its weakness
// is statistical, not stateful).
func (m *TRR) Health() error { return nil }
