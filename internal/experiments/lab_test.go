package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/geometry"
)

// TestSweepHelpers pins the shared sweep scaffolding every lifecycle
// experiment builds on: the grid is row-major, every cell runs once with the
// seed its index derives, results come back by cell index at any pool width,
// rep sweeps group contiguous reps, the all-cells fold is not short a cell,
// and a sweep value folds its cells' rows, scalars and votes as below.
func TestSweepHelpers(t *testing.T) {
	cells := grid([]string{"a", "b"}, []int{1, 2, 3}, func(s string, n int) string { return fmt.Sprint(s, n) })
	if want := []string{"a1", "a2", "a3", "b1", "b2", "b3"}; !reflect.DeepEqual(cells, want) {
		t.Fatalf("grid = %v, want row-major %v", cells, want)
	}

	type ran struct {
		cell string
		seed int64
	}
	for _, pool := range []*Pool{nil, NewPool(1), NewPool(4)} {
		got, err := mapCells(context.Background(), pool, 23, cells, func(c string, seed int64) (ran, error) {
			return ran{c, seed}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			if want := (ran{c, RepSeed(23, i)}); got[i] != want {
				t.Errorf("width %d: cell %d ran as %+v, want %+v", pool.Width(), i, got[i], want)
			}
		}
		if len(got) != len(cells) {
			t.Errorf("width %d: %d results for %d cells", pool.Width(), len(got), len(cells))
		}

		groups, err := mapReps(context.Background(), pool, 41, []string{"x", "y", "z"}, 2, func(g string, seed int64) (ran, error) {
			return ran{g, seed}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := [][]ran{
			{{"x", RepSeed(41, 0)}, {"x", RepSeed(41, 1)}},
			{{"y", RepSeed(41, 2)}, {"y", RepSeed(41, 3)}},
			{{"z", RepSeed(41, 4)}, {"z", RepSeed(41, 5)}},
		}
		if !reflect.DeepEqual(groups, want) {
			t.Errorf("width %d: mapReps = %+v, want %+v", pool.Width(), groups, want)
		}
	}

	boom := errors.New("boom")
	if _, err := mapCells(context.Background(), NewPool(2), 0, cells, func(c string, _ int64) (int, error) {
		if c == "b1" {
			return 0, boom
		}
		return 0, nil
	}); !errors.Is(err, boom) {
		t.Errorf("a failing cell's error was lost: %v", err)
	}

	if got := modeledMs(3*geometry.GiB, 12); got != 250 {
		t.Errorf("3 GiB at 12 GiB/s modeled as %v ms, want 250", got)
	}

	positive := func(n int) bool { return n > 0 }
	for _, tc := range []struct {
		cells []int
		all   bool
	}{
		{nil, true},
		{[]int{1, 2, 3}, true},
		{[]int{1, 2, -3}, false}, // the failing cell is the last one
		{[]int{-1, 2, 3}, false}, // ... and the first
		{[]int{-1, -2, -3}, false},
	} {
		if got := allCells(tc.cells, positive); got != tc.all {
			t.Errorf("allCells(%v) = %v, want %v", tc.cells, got, tc.all)
		}
	}

	// The sweep folds its cells' tallies: rows and sums in cell order at any
	// pool width, maxima from 0, a false vote that sticks on an every-cell
	// check, an unvoted check that passes, an any check that needs one true
	// vote, and a failing cell's error.
	// Summing these in any other order gives a different float.
	terms := []float64{1e16, 1, 1, -1e16, -3}
	inOrder := 0.0
	for _, v := range terms {
		inOrder += v
	}
	if reversed := -3 - 1e16 + 1 + 1 + 1e16; reversed == inOrder {
		t.Fatalf("terms sum to %v in either order; the case cannot see the order", inOrder)
	}
	checks := []sweepCheck{
		{name: "all_positive"},
		{name: "unvoted"},
		{name: "some_large", any: true},
		{name: "none_voted_any", any: true},
	}
	s := sweep[float64]{
		result: Result{Name: "fold", Notes: []string{"template note"}},
		seed:   7,
		cells:  terms,
		checks: checks,
		cell: func(v float64, seed int64, tl *tally) error {
			tl.row(fmt.Sprint(v), seed)
			tl.sum("total", v)
			tl.max("peak", -v)
			tl.vote("all_positive", v > 0)
			tl.vote("some_large", v > 1e15)
			return nil
		},
	}
	for _, pool := range []*Pool{nil, NewPool(1), NewPool(4)} {
		r, err := s.run(context.Background(), pool)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range terms {
			if want := (Row{Label: fmt.Sprint(v), Cells: []any{RepSeed(7, i)}}); !reflect.DeepEqual(r.Rows[i], want) {
				t.Errorf("width %d: row %d = %+v, want %+v", pool.Width(), i, r.Rows[i], want)
			}
		}
		if len(r.Rows) != len(terms) {
			t.Errorf("width %d: %d rows for %d cells", pool.Width(), len(r.Rows), len(terms))
		}
		if r.Scalars["total"] != inOrder {
			t.Errorf("width %d: total = %v, want the cell-order sum %v", pool.Width(), r.Scalars["total"], inOrder)
		}
		if r.Scalars["peak"] != 1e16 {
			t.Errorf("width %d: peak = %v, want 1e16", pool.Width(), r.Scalars["peak"])
		}
		want := []Check{
			{Name: "all_positive", Pass: false}, // two cells voted false
			{Name: "unvoted", Pass: true},
			{Name: "some_large", Pass: true},
			{Name: "none_voted_any", Pass: false},
		}
		if !reflect.DeepEqual(r.Checks, want) {
			t.Errorf("width %d: checks = %+v, want %+v", pool.Width(), r.Checks, want)
		}
		if !reflect.DeepEqual(r.Notes, []string{"template note"}) {
			t.Errorf("width %d: notes = %v, want the template's", pool.Width(), r.Notes)
		}
	}

	// Maxima fold from 0, and a false vote sticks through a later true one.
	s.cells = []float64{-2, -1}
	s.cell = func(v float64, _ int64, tl *tally) error {
		tl.max("peak", v)
		tl.vote("all_positive", v > -2)
		return nil
	}
	r, err := s.run(context.Background(), NewPool(2))
	if err != nil {
		t.Fatal(err)
	}
	if r.Scalars["peak"] != 0 {
		t.Errorf("peak over negative terms = %v, want 0", r.Scalars["peak"])
	}
	if r.Checks[0].Pass {
		t.Error("a true vote overturned an earlier false one")
	}

	s.cell = func(v float64, _ int64, _ *tally) error {
		if v == -2 {
			return boom
		}
		return nil
	}
	if _, err := s.run(context.Background(), NewPool(2)); !errors.Is(err, boom) {
		t.Errorf("a failing cell's error was lost: %v", err)
	}
	s.cell = func(_ float64, _ int64, tl *tally) error {
		tl.vote("misspelled", true)
		return nil
	}
	if _, err := s.run(context.Background(), nil); err == nil {
		t.Error("a vote on an undeclared check was accepted")
	}
}
