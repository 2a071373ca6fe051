package metrics

import (
	"bytes"
	"encoding/csv"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestSeriesWriteCSVRoundTrip(t *testing.T) {
	s := NewSeries("perf sweep", "size", "a", "b")
	s.AddPoint("64", map[string]float64{"a": 1.5, "b": 2})
	s.AddPoint("128", map[string]float64{"a": 0.25})

	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(buf.String(), "\n", 2)
	if lines[0] != "# perf sweep" {
		t.Errorf("title comment = %q", lines[0])
	}
	r := csv.NewReader(strings.NewReader(lines[1]))
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"size", "a", "b"},
		{"64", "1.5", "2"},
		{"128", "0.25", "0"}, // missing value renders 0
	}
	if len(recs) != len(want) {
		t.Fatalf("rows = %v", recs)
	}
	for i := range want {
		for j := range want[i] {
			if recs[i][j] != want[i][j] {
				t.Errorf("row %d col %d = %q, want %q", i, j, recs[i][j], want[i][j])
			}
		}
	}
}

// TestSeriesWriteCSVAwkward feeds the series writer the inputs a plotting
// pipeline trips over — an empty series (header only), non-finite values
// (NaN, ±Inf from zero-division in speedup columns), labels that need CSV
// quoting (commas, quotes, a leading '#'), and a series with no variants —
// and parses the body back with encoding/csv: the header and every cell
// must come back exactly.
func TestSeriesWriteCSVAwkward(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Series
		want  [][]string
	}{
		{"empty", func() *Series {
			return NewSeries("nothing yet", "n", "a", "b")
		}, [][]string{{"n", "a", "b"}}},
		{"nonfinite", func() *Series {
			s := NewSeries("speedups", "workers", "ok", "bad")
			s.AddPoint("1", map[string]float64{"ok": 1, "bad": math.NaN()})
			s.AddPoint("2", map[string]float64{"ok": math.Inf(1), "bad": math.Inf(-1)})
			return s
		}, [][]string{{"workers", "ok", "bad"}, {"1", "1", "NaN"}, {"2", "+Inf", "-Inf"}}},
		{"quoted-labels", func() *Series {
			s := NewSeries("odd, labels", "size, bytes", `sharded "fast"`, "#central")
			s.AddPoint("1,024", map[string]float64{`sharded "fast"`: 0.5, "#central": 2.25})
			return s
		}, [][]string{{"size, bytes", `sharded "fast"`, "#central"}, {"1,024", "0.5", "2.25"}}},
		{"no-variants", func() *Series {
			s := NewSeries("x only", "n")
			s.AddPoint("1", nil)
			s.AddPoint("2", nil)
			return s
		}, [][]string{{"n"}, {"1"}, {"2"}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := c.build()
			var buf bytes.Buffer
			if err := s.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			title, body, _ := strings.Cut(buf.String(), "\n")
			if title != "# "+s.Title {
				t.Errorf("title line = %q, want %q", title, "# "+s.Title)
			}
			recs, err := csv.NewReader(strings.NewReader(body)).ReadAll()
			if err != nil {
				t.Fatalf("parse: %v\ncsv:\n%s", err, buf.String())
			}
			if !reflect.DeepEqual(recs, c.want) {
				t.Errorf("records = %q, want %q", recs, c.want)
			}
		})
	}
}

func TestTableWriteCSV(t *testing.T) {
	tb := NewTable("variants", "name", "value")
	tb.Add("x", "1")
	tb.Add("y, z", "2") // comma must be quoted by the writer
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	body := strings.SplitN(buf.String(), "\n", 2)[1]
	recs, err := csv.NewReader(strings.NewReader(body)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2][0] != "y, z" {
		t.Fatalf("rows = %v", recs)
	}
}
