package mitigation

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// diffOp is one scripted call of a differential run: an activation burst,
// or a refresh-window turnover when windowEnd is set.
type diffOp struct {
	ev        Activation
	windowEnd bool
}

// diffRun drives got and want through ops and returns the first divergence:
// per OnActivate call the multiset of (bank, row) refresh directives —
// order within one call is unspecified by the RefreshFn contract — then
// Overhead and Health after every op.
func diffRun(got, want Mitigation, ops []diffOp) error {
	var g, w [][2]int
	gfn := func(bank, row int) { g = append(g, [2]int{bank, row}) }
	wfn := func(bank, row int) { w = append(w, [2]int{bank, row}) }
	cmp := func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	}
	for i, op := range ops {
		if op.windowEnd {
			got.OnWindowEnd()
			want.OnWindowEnd()
		} else {
			g, w = g[:0], w[:0]
			got.OnActivate(op.ev, gfn)
			want.OnActivate(op.ev, wfn)
			slices.SortFunc(g, cmp)
			slices.SortFunc(w, cmp)
			if !slices.Equal(g, w) {
				return fmt.Errorf("op %d %+v: directives %v, reference %v", i, op.ev, g, w)
			}
		}
		if gov, wov := got.Overhead(), want.Overhead(); gov != wov {
			return fmt.Errorf("op %d: overhead %+v, reference %+v", i, gov, wov)
		}
		if ge, we := got.Health(), want.Health(); fmt.Sprint(ge) != fmt.Sprint(we) {
			return fmt.Errorf("op %d: health %v, reference %v", i, ge, we)
		}
	}
	return nil
}

// diffSizes, diffBudgets and the two constants below span the differential
// grid: every table size class the repo uses plus the degenerate (1) and an
// odd over-sized one (33); a threshold and interval small enough that
// threshold fires, interval fires and budget exhaustion all happen within a
// few hundred ops.
var (
	diffSizes   = []int{1, 2, 4, 8, 16, 33}
	diffBudgets = []int{0, 1, 5}
)

const (
	diffThreshold = 24
	diffInterval  = 37
)

// randomOps scripts n ops over banks: rows from a space a little larger than
// the table (hits, misses and evictions all common), Count mostly 1 so equal
// counters — the tie-break case — are the norm, with bursts that cross the
// threshold in one call and ~1 % window ends interleaved.
func randomOps(rng *rand.Rand, banks, size, n int) []diffOp {
	ops := make([]diffOp, n)
	for i := range ops {
		if rng.Intn(100) == 0 {
			ops[i].windowEnd = true
			continue
		}
		count := 1
		switch rng.Intn(10) {
		case 0:
			count = 2 + rng.Intn(6)
		case 1:
			count = diffThreshold + rng.Intn(4)
		}
		ops[i].ev = Activation{Bank: rng.Intn(banks), Row: rng.Intn(2*size + 3), Count: count}
	}
	return ops
}

func TestAggressorTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260930))
	for _, size := range diffSizes {
		for _, banks := range []int{1, 3, 16} {
			ops := randomOps(rng, banks, size, 20_000)
			for _, budget := range diffBudgets {
				if err := diffRun(NewSilverBullet(banks, size, diffThreshold, budget),
					newRefSilverBullet(banks, size, diffThreshold, budget), ops); err != nil {
					t.Errorf("silver-bullet size %d banks %d budget %d: %v", size, banks, budget, err)
				}
			}
			if err := diffRun(NewTRR(banks, size, diffInterval), newRefTRR(banks, size, diffInterval), ops); err != nil {
				t.Errorf("trr size %d banks %d: %v", size, banks, err)
			}
		}
	}
}

// FuzzAggressorTableMatchesReference decodes three bytes per op: bank (and,
// at 0xff, a window end), row, and a count selector whose top values are
// threshold-crossing bursts.
func FuzzAggressorTableMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 0xff, 0, 0, 0, 1, 250}, uint8(1), uint8(1))
	f.Add([]byte{1, 9, 3, 1, 8, 3, 1, 7, 3, 1, 6, 3, 1, 5, 255, 2, 5, 1}, uint8(2), uint8(0))
	f.Add([]byte{}, uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, sizeSel, budgetSel uint8) {
		const banks = 4
		size := diffSizes[int(sizeSel)%len(diffSizes)]
		budget := diffBudgets[int(budgetSel)%len(diffBudgets)]
		ops := make([]diffOp, 0, len(data)/3)
		for ; len(data) >= 3; data = data[3:] {
			if data[0] == 0xff {
				ops = append(ops, diffOp{windowEnd: true})
				continue
			}
			count := 1 + int(data[2])%8
			if data[2] >= 248 {
				count = diffThreshold + int(data[2]) - 248
			}
			ops = append(ops, diffOp{ev: Activation{Bank: int(data[0]) % banks, Row: int(data[1]), Count: count}})
		}
		if err := diffRun(NewSilverBullet(banks, size, diffThreshold, budget),
			newRefSilverBullet(banks, size, diffThreshold, budget), ops); err != nil {
			t.Errorf("silver-bullet size %d budget %d: %v", size, budget, err)
		}
		if err := diffRun(NewTRR(banks, size, diffInterval), newRefTRR(banks, size, diffInterval), ops); err != nil {
			t.Errorf("trr size %d: %v", size, err)
		}
	})
}

// wrongTieSilverBullet is the reference with the min scan's row tie-break
// flipped (highest row wins among equal counters).
type wrongTieSilverBullet struct{ *refSilverBullet }

func (m wrongTieSilverBullet) OnActivate(ev Activation, refresh RefreshFn) {
	tb := &m.tables[ev.Bank]
	if _, tracked := tb.Get(ev.Row); !tracked && tb.Len() >= m.size {
		minRow, minC := -1, 0.0
		tb.Range(func(r int, rc float64) bool {
			if minRow == -1 || rc < minC || (rc == minC && r > minRow) {
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

// TestDifferentialCatchesWrongTieBreak shows the harness has teeth: an
// implementation that differs from the reference only in which of two
// equal-count entries it evicts is reported, at every table size above 1
// (a one-entry table has no ties).
func TestDifferentialCatchesWrongTieBreak(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range diffSizes[1:] {
		ops := randomOps(rng, 3, size, 20_000)
		mutant := wrongTieSilverBullet{newRefSilverBullet(3, size, diffThreshold, 0)}
		if err := diffRun(mutant, newRefSilverBullet(3, size, diffThreshold, 0), ops); err == nil {
			t.Errorf("size %d: flipped tie-break went unnoticed over %d ops", size, len(ops))
		}
	}
}

// TestDefenseObserveSteadyStateAllocs: everything a row defense needs is
// allocated in its constructor, so building one and observing 100k
// activations across window turnovers allocates exactly what building it
// does. Construction sits inside the measured function because
// AllocsPerRun's warm-up call would otherwise absorb a lazy first-touch
// allocation per bank — the very thing this pins.
func TestDefenseObserveSteadyStateAllocs(t *testing.T) {
	const banks = 32
	refreshes := 0
	refresh := func(int, int) { refreshes++ }
	for name, build := range map[string]func() Mitigation{
		"para":          func() Mitigation { return NewPARA(DefaultPARAProbability, 1) },
		"silver-bullet": func() Mitigation { return NewSilverBullet(banks, DefaultSBTableSize, DefaultSBThreshold, 5) },
		"trr":           func() Mitigation { return NewTRR(banks, 4, 800) },
	} {
		built := testing.AllocsPerRun(10, func() { build() })
		observed := testing.AllocsPerRun(10, func() {
			m := build()
			for i := 0; i < 100_000; i++ {
				m.OnActivate(Activation{Bank: i % banks, Row: i * 7 % 2048, Count: 1 + i%3}, refresh)
				if i%10_000 == 9_999 {
					m.OnWindowEnd()
				}
			}
		})
		if observed != built {
			t.Errorf("%s: %v allocations to build and observe 100k activations, %v to build: observing allocates",
				name, observed, built)
		}
	}
	if refreshes == 0 {
		t.Fatal("no defense injected a refresh: the run exercised no fire path")
	}
}

// TestRowDefenseValidates: RowDefense is the construction path benchmark,
// experiments and serve stations use; a spec that fails Validate builds
// nothing.
func TestRowDefenseValidates(t *testing.T) {
	for _, s := range []Spec{{Kind: Kind(99)}, {Kind: -1}} {
		if d, err := s.RowDefense(4, 1); err == nil {
			t.Errorf("%+v: RowDefense = %v, nil; want Validate's error", s, d)
		}
	}
}

func TestTableDefensesRejectEmptyTable(t *testing.T) {
	for name, build := range map[string]func(){
		"silver-bullet": func() { NewSilverBullet(4, 0, DefaultSBThreshold, 0) },
		"trr":           func() { NewTRR(4, 0, 800) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: table size 0 did not panic", name)
				}
			}()
			build()
		}()
	}
}
