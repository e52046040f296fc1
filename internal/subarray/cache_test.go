package subarray

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/geometry"
)

func TestLayoutSaveLoadRoundTrip(t *testing.T) {
	l := tinyLayout(t)
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g := l.Geometry()
	m, err := addr.NewSkylakeMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, g, m)
	if err != nil {
		t.Fatal(err)
	}
	if got.RowsPerGroup() != l.RowsPerGroup() || got.Artificial() != l.Artificial() {
		t.Error("layout metadata mismatch after reload")
	}
	for s := 0; s < g.Sockets; s++ {
		for i := 0; i < l.GroupsPerSocket(); i++ {
			a, b := l.Group(s, i), got.Group(s, i)
			if a.FirstRow != b.FirstRow || a.LastRow != b.LastRow || len(a.Ranges) != len(b.Ranges) {
				t.Fatalf("group (%d,%d) differs after reload", s, i)
			}
			for j := range a.Ranges {
				if a.Ranges[j] != b.Ranges[j] {
					t.Fatalf("group (%d,%d) range %d differs", s, i, j)
				}
			}
		}
	}
}

func TestLayoutLoadRejectsMismatchedGeometry(t *testing.T) {
	l := tinyLayout(t)
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := tinyGeometry().WithSubarraySize(1024) // different boot parameter
	m, err := addr.NewSkylakeMapper(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, other, m); err == nil {
		t.Fatal("cached layout accepted for a different geometry")
	}
}

func TestLayoutLoadRejectsCorruptedCache(t *testing.T) {
	l := tinyLayout(t)
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g := l.Geometry()
	m, _ := addr.NewSkylakeMapper(g)
	// Truncated JSON.
	trunc := buf.String()[:buf.Len()/2]
	if _, err := Load(strings.NewReader(trunc), g, m); err == nil {
		t.Error("truncated cache accepted")
	}
	// Tampered group size.
	tampered := strings.Replace(buf.String(), `"rows_per_group":512`, `"rows_per_group":100`, 1)
	if _, err := Load(strings.NewReader(tampered), g, m); err == nil {
		t.Error("tampered cache accepted")
	}
}

// TestLayoutLoadKeepsExactRanges requires a reloaded layout to equal the one
// saved, with every group's range set sized exactly, as a built one is.
func TestLayoutLoadKeepsExactRanges(t *testing.T) {
	l := tinyLayout(t)
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, l.Geometry(), l.mapper)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.groups, l.groups) {
		t.Fatal("reloaded groups differ from the saved ones")
	}
	for s := range got.groups {
		for _, grp := range got.groups[s] {
			if len(grp.Ranges) != cap(grp.Ranges) {
				t.Fatalf("group (%d,%d): %d ranges in capacity %d", s, grp.Index, len(grp.Ranges), cap(grp.Ranges))
			}
		}
	}
}

// TestLayoutLoadRejectsMalformedRanges tampers with a saved layout in ways
// that keep every group's byte count, so only the ranges' shape is wrong:
// Group.Contains binary-searches them, and would answer wrongly.
func TestLayoutLoadRejectsMalformedRanges(t *testing.T) {
	l := tinyLayout(t)
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// A group of at least two ranges to tamper with.
	gi := -1
	for i := 0; i < l.GroupsPerSocket(); i++ {
		if len(l.Group(0, i).Ranges) >= 2 {
			gi = i
			break
		}
	}
	if gi < 0 {
		t.Fatal("no group on socket 0 has two ranges")
	}
	for _, c := range []struct {
		name   string
		tamper func(rs [][]Range)
	}{
		{"swapped", func(rs [][]Range) { rs[gi][0], rs[gi][1] = rs[gi][1], rs[gi][0] }},
		{"overlapping", func(rs [][]Range) {
			// Slide the second range back over the first, keeping its length.
			shift := rs[gi][1].Start - rs[gi][0].Start - geometry.PageSize2M
			rs[gi][1].Start -= shift
			rs[gi][1].End -= shift
		}},
		{"empty", func(rs [][]Range) {
			// At the top of memory, past every group's ranges.
			top := uint64(l.Geometry().TotalBytes())
			rs[gi] = append(rs[gi], Range{Start: top, End: top})
		}},
		{"another-group", func(rs [][]Range) {
			other := (gi + 1) % len(rs)
			rs[gi] = append([]Range(nil), rs[other]...)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var snap layoutSnapshot
			if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
				t.Fatal(err)
			}
			rs := make([][]Range, len(snap.Groups[0]))
			for i, gs := range snap.Groups[0] {
				rs[i] = gs.Ranges
			}
			c.tamper(rs)
			for i := range rs {
				snap.Groups[0][i].Ranges = rs[i]
			}
			data, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Load(bytes.NewReader(data), l.Geometry(), l.mapper); err == nil {
				t.Fatal("tampered cache accepted")
			}
		})
	}
}
