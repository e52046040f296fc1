package experiments

import (
	"bytes"
	"context"
	"testing"
)

// TestServingSLORows: one row per (defense, scenario) cell, every check
// green, and the headline contrast present — quiet p99 well under the SLO
// for both baseline and Siloz, churn p99.9 above quiet for both.
func TestServingSLORows(t *testing.T) {
	r, err := servingSLOExp(context.Background(), nil, servingSLOConfig(Flags{Quick: true}))
	if err != nil {
		t.Fatal(err)
	}
	if want := 5 * 2; len(r.Rows) != want {
		t.Fatalf("got %d rows, want %d (five defenses x two scenarios)", len(r.Rows), want)
	}
	for _, c := range r.Checks {
		if !c.Pass {
			t.Errorf("check %s failed: %s", c.Name, c.Detail)
		}
	}
	for _, k := range []string{"none", "siloz"} {
		if quiet := scalarOf(t, r, "sslo_p99_us_"+k+"_quiet"); quiet <= 0 || quiet >= 100 {
			t.Errorf("%s quiet p99 = %vus, want inside (0, SLO)", k, quiet)
		}
		churn := scalarOf(t, r, "sslo_p999_us_"+k+"_churn")
		quiet999 := scalarOf(t, r, "sslo_p999_us_"+k+"_quiet")
		if churn <= quiet999 {
			t.Errorf("%s churn p99.9 (%vus) not above quiet (%vus)", k, churn, quiet999)
		}
		if miss := scalarOf(t, r, "sslo_miss_pct_"+k+"_churn"); miss <= 0 {
			t.Errorf("%s churn run missed no SLOs; churn windows invisible", k)
		}
	}
}

// TestServingSLOParallelDeterminism: the serving grid renders byte-identical
// text and JSON on a width-1 and a width-8 pool — the acceptance criterion
// that lets its defense x scenario x rep cells fan out.
func TestServingSLOParallelDeterminism(t *testing.T) {
	jobs := quickJobs(t, "serving-slo")
	text1, js1 := renderRun(t, jobs, 1)
	text8, js8 := renderRun(t, jobs, 8)
	if text1 != text8 {
		t.Errorf("text output differs between -parallel 1 and -parallel 8:\n--- width 1 ---\n%s\n--- width 8 ---\n%s", text1, text8)
	}
	if !bytes.Equal(js1, js8) {
		t.Errorf("JSON output differs between -parallel 1 and -parallel 8")
	}
}
