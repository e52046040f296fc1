package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Rendering lives here, apart from the experiments themselves: Run returns
// a structured *Result and these functions turn it into text for the
// terminal or JSON for trajectory files. Both are deterministic functions of
// the Result, so identically configured runs — serial or parallel — emit
// identical bytes.

// RenderText formats a result as aligned, human-readable text.
func RenderText(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	if len(r.Columns) > 0 {
		renderTable(&b, r)
	}
	for _, s := range r.Series {
		renderSeries(&b, s)
	}
	if len(r.Scalars) > 0 {
		keys := make([]string, 0, len(r.Scalars))
		for k := range r.Scalars {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%-32s %s\n", k, formatCell(r.Scalars[k]))
		}
	}
	for _, c := range r.Checks {
		verdict := "PASS"
		if !c.Pass {
			verdict = "FAIL"
		}
		if c.Detail != "" {
			fmt.Fprintf(&b, "check %s: %s (%s)\n", c.Name, verdict, c.Detail)
		} else {
			fmt.Fprintf(&b, "check %s: %s\n", c.Name, verdict)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "%s\n", n)
	}
	return b.String()
}

// renderTable writes the rows aligned under a header line. Units, when
// present, annotate the column headers.
func renderTable(b *strings.Builder, r *Result) {
	headers := make([]string, len(r.Columns))
	for i, c := range r.Columns {
		if i < len(r.Units) && r.Units[i] != "" {
			c += " (" + r.Units[i] + ")"
		}
		headers[i] = c
	}
	labelW := 0
	for _, row := range r.Rows {
		if len(row.Label) > labelW {
			labelW = len(row.Label)
		}
	}
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(headers))
		for ci := range headers {
			if ci < len(row.Cells) {
				cells[ri][ci] = formatCell(row.Cells[ci])
			}
			if len(cells[ri][ci]) > widths[ci] {
				widths[ci] = len(cells[ri][ci])
			}
		}
	}
	fmt.Fprintf(b, "%-*s", labelW, "")
	for i, h := range headers {
		fmt.Fprintf(b, "  %*s", widths[i], h)
	}
	b.WriteString("\n")
	for ri, row := range r.Rows {
		fmt.Fprintf(b, "%-*s", labelW, row.Label)
		for ci := range headers {
			fmt.Fprintf(b, "  %*s", widths[ci], cells[ri][ci])
		}
		b.WriteString("\n")
	}
}

// renderSeries writes one figure's bars the way the paper's figures read:
// labeled values with 95% confidence half-widths.
func renderSeries(b *strings.Builder, s Series) {
	fmt.Fprintf(b, "%s\n", s.Name)
	for _, p := range s.Points {
		if p.CI != 0 {
			fmt.Fprintf(b, "  %-22s %+8.2f%s ±%.2f%s\n", p.Label, p.Value, s.Unit, p.CI, s.Unit)
		} else {
			fmt.Fprintf(b, "  %-22s %+8.2f%s\n", p.Label, p.Value, s.Unit)
		}
	}
}

// formatCell formats one table cell or scalar.
func formatCell(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case bool:
		if x {
			return "yes"
		}
		return "no"
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', 6, 64)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// RenderJSON marshals the result as one indented JSON document — the
// machine-readable form `siloz bench -json` emits per experiment and the
// BENCH_*.json perf trajectories consume. Map keys marshal sorted, so the
// bytes are deterministic.
func RenderJSON(r *Result) ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("experiments: encoding %s: %w", r.Name, err)
	}
	return append(out, '\n'), nil
}
