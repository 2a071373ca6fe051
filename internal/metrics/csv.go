package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
)

// CSV export: machine-readable forms of Series and Table for plotting
// pipelines (gnuplot, pandas). The first row is the header; the title
// travels as a leading comment line. Non-finite values render as %g does
// ("NaN", "+Inf", "-Inf"), which strconv.ParseFloat and pandas accept.

// WriteCSV writes the series as CSV: a "# title" comment, a header of the
// x label and the variant names, then one row per x point.
func (s *Series) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", s.Title); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{s.XLabel}, s.Order...)); err != nil {
		return err
	}
	for i, x := range s.xs {
		row := []string{x}
		for _, name := range s.Order {
			col := s.ys[name]
			v := 0.0
			if i < len(col) {
				v = col[i]
			}
			row = append(row, fmt.Sprintf("%g", v))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV writes the table as CSV: a "# title" comment, the headers, then
// the rows verbatim.
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	for _, r := range t.rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
