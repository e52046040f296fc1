package rowcount

import (
	"fmt"
	"math/rand"
	"testing"
)

// sameContents checks tab against ref over the whole key space [0, rows):
// equal Len, and every key present in exactly one of them or unequal in
// value is an error. With Len equal and every key of the space probed, the
// table can hold nothing the map does not.
func sameContents[V Value](tab *Table[V], ref map[int]V, rows int) error {
	if tab.Len() != len(ref) {
		return fmt.Errorf("Len = %d, map has %d", tab.Len(), len(ref))
	}
	for row := 0; row < rows; row++ {
		got, ok := tab.Get(row)
		want, wok := ref[row]
		if ok != wok || got != want {
			return fmt.Errorf("row %d = (%v,%v), map has (%v,%v)", row, got, ok, want, wok)
		}
	}
	return nil
}

// capacity is the tests' one window onto the table's footprint.
func (t *Table[V]) capacity() int { return len(t.slots) }

// Len returns the number of live rows.
func (t *Table[V]) Len() int { return t.live }

// Get returns row's value and whether it is present.
func (t *Table[V]) Get(row int) (V, bool) {
	if t.live > 0 {
		for i := hash(int32(row)) & t.mask; t.slots[i].meta == t.gen; i = (i + 1) & t.mask {
			if t.slots[i].key == int32(row) {
				return t.slots[i].val, true
			}
		}
	}
	var zero V
	return zero, false
}

// TestDifferentialAgainstMap drives a Table and a plain map through the
// same randomized operation stream — adds, resets, lookups — and demands
// identical contents after every step. Windows are long enough for the table
// to grow several times. This is the golden equivalence the hot paths rely
// on: the flat table must be observationally identical to the
// (bank,row)-keyed maps it replaced.
func TestDifferentialAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tab Table[int32]
	ref := map[int]int32{}
	check := func(step int) {
		t.Helper()
		if err := sameContents(&tab, ref, 3000); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for step := 0; step < 200_000; step++ {
		row := rng.Intn(3000)
		switch op := rng.Intn(1000); {
		case op < 600: // accumulate
			delta := rng.Int31n(1000)
			got := tab.Add(row, delta)
			ref[row] += delta
			if got != ref[row] {
				t.Fatalf("step %d: Add(%d) = %v, want %v", step, row, got, ref[row])
			}
		case op < 999: // lookup
			got, ok := tab.Get(row)
			want, wok := ref[row]
			if ok != wok || got != want {
				t.Fatalf("step %d: Get(%d) = (%v,%v), want (%v,%v)", step, row, got, ok, want, wok)
			}
		default: // end of refresh window
			tab.Reset()
			ref = map[int]int32{}
		}
		if step%4096 == 0 {
			check(step)
		}
	}
	check(-1)
	if tab.capacity() < 1024 {
		t.Fatalf("the stream never grew the table past %d slots", tab.capacity())
	}
}

// TestResetIsCheapAndComplete: a reset must hide every prior entry without
// shrinking capacity, and re-adding after reset must start from zero.
func TestResetIsCheapAndComplete(t *testing.T) {
	var tab Table[int32]
	for i := 0; i < 10_000; i++ {
		tab.Add(i, 1)
	}
	capBefore := tab.capacity()
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatalf("Len = %d after Reset", tab.Len())
	}
	if _, ok := tab.Get(5); ok {
		t.Fatal("entry visible after Reset")
	}
	if got := tab.Add(5, 3); got != 3 {
		t.Fatalf("Add after Reset = %d, want fresh 3", got)
	}
	if tab.capacity() != capBefore {
		t.Fatalf("Reset reallocated: cap %d -> %d", capBefore, tab.capacity())
	}
}

// TestGenerationWrap forces the generation counter past its wrap point and
// checks entries do not resurrect.
func TestGenerationWrap(t *testing.T) {
	var tab Table[int32]
	tab.Add(7, 9)
	tab.gen = maxGen // simulate 2^31-1 refresh windows
	tab.Reset()
	if _, ok := tab.Get(7); ok {
		t.Fatal("entry survived generation wrap")
	}
	tab.Add(7, 1)
	if v, ok := tab.Get(7); !ok || v != 1 {
		t.Fatalf("post-wrap Add: got (%d,%v)", v, ok)
	}
}

// TestChurnMatchesMapAcrossGrowRehashAndWrap drives the packed layout
// through the two events that move or invalidate slots wholesale — growth,
// which rehashes into a larger array, and the generation wrap that clears
// every tag — against a map, and fails unless each event was actually
// crossed.
func TestChurnMatchesMapAcrossGrowRehashAndWrap(t *testing.T) {
	const rows = 1500
	rng := rand.New(rand.NewSource(7))
	var tab Table[int32]
	tab.gen = maxGen - 2 // the third window of this test wraps
	ref := map[int]int32{}
	var grew, wrapped bool
	add := func(row int, delta int32) {
		t.Helper()
		capBefore := tab.capacity()
		ref[row] += delta
		if got := tab.Add(row, delta); got != ref[row] {
			t.Fatalf("Add(%d, %d) = %d, map has %d", row, delta, got, ref[row])
		}
		grew = grew || capBefore > 0 && tab.capacity() > capBefore
	}
	check := func(when string) {
		t.Helper()
		if err := sameContents(&tab, ref, rows); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	for window := 0; window < 5; window++ {
		// Fill: 600 distinct rows force growth 64 -> 1024 slots.
		for i := 0; i < 600; i++ {
			add(rng.Intn(600), 1+int32(rng.Intn(3)))
		}
		check("after fill")
		for i := 0; i < 4000; i++ {
			add(600+rng.Intn(rows-600), 1)
		}
		check("after churn")
		genBefore := tab.gen
		tab.Reset()
		wrapped = wrapped || tab.gen < genBefore
		clear(ref)
		check("after reset")
	}
	if !grew || !wrapped {
		t.Fatalf("events crossed: grow=%v generation wrap=%v; want both", grew, wrapped)
	}
}

// BenchmarkTableAdd names the two cache regimes of the tracker's hot call:
// one table whose slots stay in L1, and the memory controller's shape — 32
// per-bank tables of 2 048 rows each, visited bank-interleaved — where every
// probe leaves L2 and the slot layout decides how many lines it costs.
func BenchmarkTableAdd(b *testing.B) {
	b.Run("fits-l1", func(b *testing.B) {
		var tab Table[int32]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tab.Add(i&255, 1)
			if i&8191 == 8191 {
				tab.Reset()
			}
		}
	})
	b.Run("32banks-x-2048rows", func(b *testing.B) {
		const banks, rows = 32, 2048
		tabs := make([]Table[int32], banks)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A stride coprime to the row count scatters successive
			// visits to one bank across its table.
			tabs[i&(banks-1)].Add((i>>5)*1021&(rows-1), 1)
			if i&(1<<20-1) == 1<<20-1 {
				for j := range tabs {
					tabs[j].Reset()
				}
			}
		}
	})
}

func BenchmarkMapAdd(b *testing.B) {
	m := map[int]float64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m[i&1023]++
		if i&8191 == 8191 {
			m = map[int]float64{}
		}
	}
}
