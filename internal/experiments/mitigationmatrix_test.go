package experiments

import (
	"bytes"
	"context"
	"sync"
	"testing"
)

// TestMitigationMatrixRows: the matrix must carry one row per defense kind
// with a vulnerable baseline and containing defenses — the head-to-head
// comparison the framework exists to produce.
func TestMitigationMatrixRows(t *testing.T) {
	r, err := quickMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 4 {
		t.Fatalf("matrix has %d rows, want >= 4 (none + at least three defenses)", len(r.Rows))
	}
	for _, c := range r.Checks {
		if !c.Pass {
			t.Errorf("check %s failed: %s", c.Name, c.Detail)
		}
	}
	if scalarOf(t, r, "matrix_escapes_none") == 0 {
		t.Error("undefended row shows no escapes; matrix has no baseline signal")
	}
	for _, k := range []string{"para", "silver-bullet", "catt", "siloz"} {
		if v := scalarOf(t, r, "matrix_escapes_"+k); v != 0 {
			t.Errorf("%s row shows %v escapes, want 0", k, v)
		}
	}
}

// quickMatrix runs the -quick matrix inline (nil pool) once for the package.
var quickMatrix = sync.OnceValues(func() (*Result, error) {
	return mitigationMatrixExp(context.Background(), nil, mitigationMatrixConfig(Flags{Quick: true}))
})

// TestMitigationMatrixParallelDeterminism: the matrix renders byte-identical
// text and JSON inline and on a width-8 pool — the guarantee that lets its
// kind x rep cells fan out.
func TestMitigationMatrixParallelDeterminism(t *testing.T) {
	r, err := quickMatrix()
	if err != nil {
		t.Fatal(err)
	}
	js1, err := RenderJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	text8, js8 := renderRun(t, quickJobs(t, "mitigation-matrix"), 8)
	if text1 := RenderText(r); text1 != text8 {
		t.Errorf("text output differs between inline and -parallel 8:\n--- inline ---\n%s\n--- width 8 ---\n%s", text1, text8)
	}
	if !bytes.Equal(js1, js8) {
		t.Errorf("JSON output differs between inline and -parallel 8")
	}
}
