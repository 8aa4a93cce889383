// Package textio renders aligned text tables — the output layer of the
// experiment harness and command-line tools.
package textio

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table is a simple column-oriented text table.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) *Table {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		case float32:
			row[i] = formatFloat(float64(v))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
	return t
}

// formatFloat renders floats with up to four significant decimals, trimming
// noise.
func formatFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// widths returns the rendered width of each column.
func (t *Table) widths() []int {
	n := len(t.headers)
	for _, r := range t.rows {
		if len(r) > n {
			n = len(r)
		}
	}
	w := make([]int, n)
	for i, h := range t.headers {
		if c := utf8.RuneCountInString(h); c > w[i] {
			w[i] = c
		}
	}
	for _, r := range t.rows {
		for i, c := range r {
			if rc := utf8.RuneCountInString(c); rc > w[i] {
				w[i] = rc
			}
		}
	}
	return w
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	widths := t.widths()
	write := func(cells []string) error {
		var sb strings.Builder
		for i, width := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", width-utf8.RuneCountInString(cell)))
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
		return err
	}
	if len(t.headers) > 0 {
		if err := write(t.headers); err != nil {
			return err
		}
		rules := make([]string, len(widths))
		for i, width := range widths {
			rules[i] = strings.Repeat("-", width)
		}
		if err := write(rules); err != nil {
			return err
		}
	}
	for _, r := range t.rows {
		if err := write(r); err != nil {
			return err
		}
	}
	return nil
}

// String renders the aligned-text form.
func (t *Table) String() string {
	var sb strings.Builder
	if err := t.WriteText(&sb); err != nil {
		return err.Error()
	}
	return sb.String()
}
