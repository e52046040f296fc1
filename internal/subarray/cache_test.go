package subarray

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/addr"
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
