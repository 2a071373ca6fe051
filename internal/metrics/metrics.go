// Package metrics provides the small statistics and text-formatting
// utilities the benchmark harness uses to print tables and figure series in
// the shape the paper reports them.
package metrics

import (
	"fmt"
	"strings"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the minimum (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; missing cells render empty.
func (t *Table) Add(cells ...string) { t.rows = append(t.rows, cells) }

// AddF appends a row of formatted values.
func (t *Table) AddF(format string, cells ...any) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		parts[i] = fmt.Sprintf(format, c)
	}
	t.Add(parts...)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.Headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(r []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// Series formats figure data: one x column and one y column per named
// variant, in a fixed order — the text equivalent of the paper's plots.
type Series struct {
	Title  string
	XLabel string
	Order  []string
	xs     []string
	ys     map[string][]float64
}

// NewSeries creates a series with variant columns in the given order.
func NewSeries(title, xlabel string, order ...string) *Series {
	return &Series{Title: title, XLabel: xlabel, Order: order, ys: map[string][]float64{}}
}

// AddPoint appends one x row; vals maps variant name to its y value.
func (s *Series) AddPoint(x string, vals map[string]float64) {
	s.xs = append(s.xs, x)
	for _, name := range s.Order {
		s.ys[name] = append(s.ys[name], vals[name])
	}
}

// Column returns the y values of one variant.
func (s *Series) Column(name string) []float64 { return s.ys[name] }

// String renders the series as an aligned table with one variant per column.
func (s *Series) String() string {
	t := NewTable(s.Title, append([]string{s.XLabel}, s.Order...)...)
	for i, x := range s.xs {
		row := []string{x}
		for _, name := range s.Order {
			col := s.ys[name]
			v := 0.0
			if i < len(col) {
				v = col[i]
			}
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		t.Add(row...)
	}
	return t.String()
}
