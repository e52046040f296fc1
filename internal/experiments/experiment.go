package experiments

import (
	"context"
	"fmt"
)

// Experiment is one table, figure or study of the paper's evaluation: a
// registry entry that owns its parameters. Resolve is the only place that
// knows the experiment's default parameter set, its -quick set, and which of
// the shared -seed/-ops/-reps/-patterns flags apply to it; Run computes the
// result from the parameters Resolve returned (callers may override fields
// first). Run performs no I/O and renders nothing — rendering is the job of
// RenderText / RenderJSON / RenderCSV, so the same run can feed the
// terminal, machine-readable trajectory files, and future tooling.
//
// Run must be deterministic in its parameters (all randomness derives from
// the seeds in them), must honor ctx cancellation promptly, and must perform
// parallel work only through pool so the scheduler's -parallel bound holds.
// It never substitutes a default for a zero-valued parameter.
type Experiment struct {
	// Name is the registry key (e.g. "fig4"), also used as -exp value.
	Name string
	// Resolve turns the shared flags into the experiment's parameter
	// struct (nil for an experiment that has no parameters).
	Resolve func(Flags) any
	// Run executes the experiment on pool — a nil pool runs everything
	// inline on the calling goroutine, with bit-for-bit identical results —
	// with parameters of the type Resolve returns.
	Run func(ctx context.Context, pool *Pool, params any) (*Result, error)
}

// Flags are the shared command-line knobs, as parsed. An experiment keeps
// its built-in value wherever a flag is unset.
type Flags struct {
	// Quick selects each experiment's scaled-down parameter set.
	Quick bool
	// Seed replaces the experiment's built-in seed, but only when SeedSet:
	// default outputs never depend on the flag's own default.
	Seed    int64
	SeedSet bool
	// Ops, Reps and Patterns override the like-named parameter of every
	// experiment that has one; 0 keeps the built-in value.
	Ops, Reps, Patterns int
}

// seed resolves -seed against an experiment's built-in seed.
func (f Flags) seed(builtin int64) int64 {
	if f.SeedSet {
		return f.Seed
	}
	return builtin
}

// override resolves a 0-means-unset integer flag against a built-in value.
func override(flag, builtin int) int {
	if flag > 0 {
		return flag
	}
	return builtin
}

// define builds the registry entry of an experiment whose parameters are a
// P: the typed resolver and body are adapted to the untyped Experiment
// fields here, once, so experiment bodies never type-assert.
func define[P any](name string, resolve func(Flags) P,
	run func(context.Context, *Pool, P) (*Result, error)) Experiment {
	return Experiment{
		Name:    name,
		Resolve: func(f Flags) any { return resolve(f) },
		Run: func(ctx context.Context, pool *Pool, params any) (*Result, error) {
			p, ok := params.(P)
			if !ok {
				return nil, fmt.Errorf("experiments: %s takes %T parameters, got %T", name, p, params)
			}
			return run(ctx, pool, p)
		},
	}
}

// fixed builds the registry entry of an experiment with no parameters.
func fixed(name string, run func(context.Context, *Pool) (*Result, error)) Experiment {
	return Experiment{
		Name:    name,
		Resolve: func(Flags) any { return nil },
		Run: func(ctx context.Context, pool *Pool, _ any) (*Result, error) {
			return run(ctx, pool)
		},
	}
}

// Job is one experiment bound to the parameters it will run with.
type Job struct {
	Experiment
	Params any
}

// Result is the structured outcome of one experiment: tabular rows, figure
// series, headline scalars, pass/fail checks, and free-form notes. It is
// the single currency between experiments and renderers, and it marshals
// deterministically to JSON.
type Result struct {
	// Name is the experiment's registry key.
	Name string `json:"name"`
	// Title is the human heading (e.g. "Table 3: ...").
	Title string `json:"title"`
	// Columns are the table column headers; Units, when set, is parallel
	// to Columns ("" = unitless).
	Columns []string `json:"columns,omitempty"`
	Units   []string `json:"units,omitempty"`
	// Rows are the table rows, in canonical order.
	Rows []Row `json:"rows,omitempty"`
	// Series are figure bar groups (baseline-normalized overheads etc.).
	Series []Series `json:"series,omitempty"`
	// Scalars are headline quantities (geomean overhead, total flips...),
	// the values benchmark trajectories track.
	Scalars map[string]float64 `json:"scalars,omitempty"`
	// Checks are the experiment's pass/fail assertions against the paper.
	Checks []Check `json:"checks,omitempty"`
	// Notes are free-form conclusion lines.
	Notes []string `json:"notes,omitempty"`
	// Metadata records configuration context (mode, profile names...).
	// It must not contain wall-clock times or anything else that varies
	// between identically-configured runs.
	Metadata map[string]string `json:"metadata,omitempty"`
}

// Row is one table row: a label plus cells parallel to Result.Columns.
// Cells hold string, bool, int or float64 values.
type Row struct {
	Label string `json:"label"`
	Cells []any  `json:"cells,omitempty"`
}

// Series is one named group of figure points (e.g. one figure's bars).
type Series struct {
	Name string `json:"name"`
	// Unit annotates point values ("%", "ns", "GiB", ...).
	Unit   string  `json:"unit,omitempty"`
	Points []Point `json:"points"`
}

// Point is one bar: a labeled value with an optional 95% CI half-width.
type Point struct {
	Label string  `json:"label"`
	Value float64 `json:"value"`
	CI    float64 `json:"ci,omitempty"`
}

// Check is one named pass/fail assertion against the paper's claims.
type Check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

// Passed reports whether every check passed.
func (r *Result) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// row appends a table row.
func (r *Result) row(label string, cells ...any) {
	r.Rows = append(r.Rows, Row{Label: label, Cells: cells})
}

// check appends a pass/fail assertion.
func (r *Result) check(name string, pass bool, detail string) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Detail: detail})
}

// scalar records a headline quantity.
func (r *Result) scalar(name string, v float64) {
	if r.Scalars == nil {
		r.Scalars = make(map[string]float64)
	}
	r.Scalars[name] = v
}
