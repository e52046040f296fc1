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
// rep sweeps group contiguous reps, and the check folds are all-cells and
// any-cell — not each other, and not short a cell.
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
		cells    []int
		all, any bool
	}{
		{nil, true, false},
		{[]int{1, 2, 3}, true, true},
		{[]int{1, 2, -3}, false, true}, // the failing cell is the last one
		{[]int{-1, 2, 3}, false, true}, // ... and the first
		{[]int{-1, -2, 3}, false, true},
		{[]int{-1, -2, -3}, false, false},
	} {
		if got := allCells(tc.cells, positive); got != tc.all {
			t.Errorf("allCells(%v) = %v, want %v", tc.cells, got, tc.all)
		}
		if got := anyCell(tc.cells, positive); got != tc.any {
			t.Errorf("anyCell(%v) = %v, want %v", tc.cells, got, tc.any)
		}
	}
}
