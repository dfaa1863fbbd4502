package plot

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("Results", "alpha", "speedup")
	tab.AddRow(16, 1.25)
	tab.AddRow(256, 0.5)
	s := tab.String()
	if !strings.Contains(s, "Results") || !strings.Contains(s, "alpha") {
		t.Fatalf("missing title/header:\n%s", s)
	}
	if !strings.Contains(s, "1.250") || !strings.Contains(s, "256") {
		t.Fatalf("missing cells:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
}

// TestTableWideRow is the regression test for the writeRow panic: a row
// with more cells than headers used to index past the widths slice.
func TestTableWideRow(t *testing.T) {
	tab := NewTable("Wide", "a", "b")
	tab.AddRow(1, 2, 3, "extra")
	tab.AddRow("longer-cell-than-header", 2)
	s := tab.String() // must not panic
	if !strings.Contains(s, "extra") || !strings.Contains(s, "longer-cell-than-header") {
		t.Fatalf("cells missing:\n%s", s)
	}
}
