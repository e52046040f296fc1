package serve

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// TenantReport is one tenant's serving outcome.
type TenantReport struct {
	// VM names the tenant.
	VM string
	// Requests counts every request served (including failed ones);
	// Errors counts requests that died mid-issue (e.g. translation into
	// a ballooned-out page); Violations counts successful requests
	// slower than the SLO.
	Requests, Errors, Violations int64
	// Hist is the latency histogram of the tenant's successful requests.
	Hist *stats.Histogram
}

// Report is the outcome of one serving run.
type Report struct {
	// DurationNs echoes the arrival horizon; LastCompletionNs is when
	// the final request finished (beyond the horizon under overload).
	DurationNs, LastCompletionNs float64
	// SLONs echoes the configured SLO (0 = none).
	SLONs float64
	// Requests, Errors, Violations aggregate across tenants.
	Requests, Errors, Violations int64
	// Total is the latency histogram over all tenants.
	Total *stats.Histogram
	// Tenants reports per-tenant outcomes in config order.
	Tenants []TenantReport
	// Windows are the churn-event windows in firing order.
	Windows []*Window
}

// report assembles the Report from the loop's state.
func (l *Loop) report() *Report {
	r := &Report{
		DurationNs:       l.cfg.DurationNs,
		LastCompletionNs: l.lastCompletion,
		SLONs:            l.cfg.SLONs,
		Total:            l.total,
		Windows:          l.windows,
	}
	for _, t := range l.tenants {
		r.Requests += t.requests
		r.Errors += t.errors
		r.Violations += t.violations
		r.Tenants = append(r.Tenants, TenantReport{
			VM:         t.spec.VM,
			Requests:   t.requests,
			Errors:     t.errors,
			Violations: t.violations,
			Hist:       t.hist,
		})
	}
	return r
}

// AchievedQPS is successful requests per second of serving time — the run
// horizon, stretched by any completions past it (overload shows up here as
// achieved < offered).
func (r *Report) AchievedQPS() float64 {
	horizon := r.DurationNs
	if r.LastCompletionNs > horizon {
		horizon = r.LastCompletionNs
	}
	if horizon <= 0 {
		return 0
	}
	return float64(r.Requests-r.Errors) / (horizon / 1e9)
}

// ViolationFrac is the fraction of requests that missed the SLO. A request
// that died mid-issue never answered, so it counts as a miss: a run in which
// every request errors misses on all of them, not on none.
func (r *Report) ViolationFrac() float64 {
	if r.Requests <= 0 {
		return 0
	}
	return float64(r.Violations+r.Errors) / float64(r.Requests)
}

// String renders a compact human-readable report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests %d (errors %d)  achieved %.0f qps  p50 %.0fns  p99 %.0fns  p99.9 %.0fns",
		r.Requests, r.Errors, r.AchievedQPS(), r.Total.P50(), r.Total.P99(), r.Total.P999())
	if r.SLONs > 0 {
		fmt.Fprintf(&b, "  slo-miss %.3f%%", 100*r.ViolationFrac())
	}
	b.WriteByte('\n')
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "  tenant %-8s %7d reqs  p50 %8.0fns  p99 %8.0fns  max %8.0fns\n",
			t.VM, t.Requests, t.Hist.P50(), t.Hist.P99(), t.Hist.Max())
	}
	for _, w := range r.Windows {
		fmt.Fprintf(&b, "  window %-24s", w.Label)
		if w.Err != "" {
			fmt.Fprintf(&b, " error: %s\n", w.Err)
			continue
		}
		fmt.Fprintf(&b, " %6.2fms copy  %6.2fms blackout  %5d reqs in window  p99 %8.0fns\n",
			(w.EndNs-w.StartNs)/1e6, w.BlackoutNs/1e6, w.Hist.Count(), w.Hist.P99())
	}
	return b.String()
}
