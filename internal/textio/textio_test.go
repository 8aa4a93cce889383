package textio

import (
	"strings"
	"testing"
)

func sampleTable() *Table {
	return NewTable("n", "speedup", "note").
		AddRow(1, 1.0, "baseline").
		AddRow(9, 4.14, "optimum")
}

func TestWriteText(t *testing.T) {
	var sb strings.Builder
	if err := sampleTable().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "n") || !strings.Contains(lines[0], "speedup") {
		t.Errorf("header line: %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("rule line: %q", lines[1])
	}
	if !strings.Contains(lines[3], "4.14") || !strings.Contains(lines[3], "optimum") {
		t.Errorf("data line: %q", lines[3])
	}
}

func TestFloatFormatting(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{1.0, "1"},
		{4.14, "4.14"},
		{0.33333, "0.3333"},
		{0, "0"},
		{-2.50, "-2.5"},
	}
	for _, tt := range tests {
		if got := formatFloat(tt.in); got != tt.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestStringer(t *testing.T) {
	s := sampleTable().String()
	if !strings.Contains(s, "speedup") {
		t.Errorf("String() = %q", s)
	}
}

func TestRaggedRows(t *testing.T) {
	tb := NewTable("a", "b").AddRow("only")
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "only") {
		t.Error("ragged row lost")
	}
}
