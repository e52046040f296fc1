package experiments

import (
	"context"
	"reflect"
	"testing"
)

// field reads a named field of a resolved parameter struct, reporting
// whether the struct has it.
func field(params any, name string) (reflect.Value, bool) {
	v := reflect.ValueOf(params)
	if !v.IsValid() || v.Kind() != reflect.Struct {
		return reflect.Value{}, false
	}
	f := v.FieldByName(name)
	return f, f.IsValid()
}

// TestSharedFlagsReachEveryExperiment is the resolver's contract, checked
// over the whole registry so a new experiment is covered the day it is
// registered: every parameter struct that has a Seed, Ops, Reps or Patterns
// field takes the like-named shared flag, and keeps its built-in value —
// whatever -seed's own default is — when the flag is unset.
func TestSharedFlagsReachEveryExperiment(t *testing.T) {
	set := Flags{Seed: 99, SeedSet: true, Ops: 777_000, Reps: 9, Patterns: 13}
	want := map[string]int64{"Seed": 99, "Ops": 777_000, "Reps": 9, "Patterns": 13}
	for _, e := range registry {
		builtin := e.Resolve(Flags{})
		unsetSeed := e.Resolve(Flags{Seed: 99}) // parsed default, not given
		if !reflect.DeepEqual(builtin, unsetSeed) {
			t.Errorf("%s: -seed's default leaked into the parameters: %+v vs %+v", e.Name, unsetSeed, builtin)
		}
		got := e.Resolve(set)
		for name, w := range want {
			f, ok := field(got, name)
			if !ok {
				continue
			}
			if f.Int() != w {
				t.Errorf("%s: %s = %d with the flag set to %d", e.Name, name, f.Int(), w)
			}
			if b, _ := field(builtin, name); b.Int() == w {
				t.Errorf("%s: built-in %s already equals the probe value %d; test is vacuous", e.Name, name, w)
			}
		}
	}
}

// TestResolveTable pins individual resolutions: the -reps/-ops fix (at the
// parent commit both reached only the performance experiments), the -quick
// sets, and the actrates op floor.
func TestResolveTable(t *testing.T) {
	for _, tc := range []struct {
		exp   string
		flags Flags
		field string
		want  int64
	}{
		{"lifecycle-attack", Flags{}, "Reps", 2},
		{"lifecycle-attack", Flags{Quick: true}, "Reps", 1},
		{"lifecycle-attack", Flags{Quick: true, Reps: 3}, "Reps", 3},
		{"mitigation-matrix", Flags{Reps: 4}, "Reps", 4},
		{"mitigation-matrix", Flags{Ops: 5000}, "Ops", 5000},
		{"mitigation-matrix", Flags{Quick: true}, "Ops", 8000},
		{"mitigation-matrix", Flags{Reps: 4}, "WorkloadReps", 3},
		{"serving-slo", Flags{Reps: 2, Quick: true}, "Reps", 2},
		{"serving-slo", Flags{}, "Seed", 61},
		{"serving-slo", Flags{Seed: 0, SeedSet: true}, "Seed", 0},
		{"fig4", Flags{}, "Seed", 1},
		{"fig4", Flags{Quick: true}, "Ops", 15_000},
		{"fig4", Flags{Quick: true, Ops: 5000, Reps: 2}, "Reps", 2},
		{"table3", Flags{}, "Patterns", 40},
		{"table3", Flags{Quick: true, Patterns: 10}, "Patterns", 10},
		{"table3", Flags{}, "Seed", 7},
		{"actrates", Flags{Quick: true, Ops: 5000}, "Ops", 250_000},
		{"actrates", Flags{Ops: 400_000}, "Ops", 400_000},
		{"fleet-churn", Flags{Quick: true}, "Hosts", 3},
		{"fleet-churn", Flags{Seed: 5, SeedSet: true}, "Seed", 5},
	} {
		e, ok := Get(tc.exp)
		if !ok {
			t.Fatalf("experiment %q not registered", tc.exp)
		}
		f, ok := field(e.Resolve(tc.flags), tc.field)
		if !ok {
			t.Errorf("%s: parameters have no field %s", tc.exp, tc.field)
			continue
		}
		if f.Int() != tc.want {
			t.Errorf("%s %+v: %s = %d, want %d", tc.exp, tc.flags, tc.field, f.Int(), tc.want)
		}
	}
}

// TestSelect pins selection: "all" is the registry in canonical order, a
// list keeps the caller's order, and an unknown name fails the whole
// selection.
func TestSelect(t *testing.T) {
	all, err := Select("all", Flags{})
	if err != nil || len(all) != len(registry) {
		t.Fatalf("Select(all) = %d jobs, %v", len(all), err)
	}
	for i, j := range all {
		if j.Name != registry[i].Name {
			t.Fatalf("job %d is %s, want %s", i, j.Name, registry[i].Name)
		}
	}
	jobs, err := Select("zebram, ecc", Flags{})
	if err != nil || len(jobs) != 2 || jobs[0].Name != "zebram" || jobs[1].Name != "ecc" {
		t.Fatalf("Select list = %+v, %v", jobs, err)
	}
	if _, err := Select("ecc,nope", Flags{}); err == nil {
		t.Error("unknown experiment name selected")
	}
}

// TestRunRejectsForeignParams: an entry handed another experiment's
// parameters fails with an error naming both types, never a panic.
func TestRunRejectsForeignParams(t *testing.T) {
	e, _ := Get("fig4")
	if _, err := e.Run(context.Background(), nil, securityConfig(Flags{})); err == nil {
		t.Error("fig4 ran with SecurityConfig parameters")
	}
}
