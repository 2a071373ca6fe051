package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workloads"
)

// TestRun drives every invocation reproduce supports at -quick sizes,
// including the ones that replaced the per-figure commands (-fig N, -ext,
// -chrome/-prv), and checks the exit status, which tables print, and the
// files written. "{dir}" in an argument stands for a fresh temporary
// directory; files maps each file expected in it to a substring it must
// contain.
func TestRun(t *testing.T) {
	traceFiles := map[string]string{}
	for _, v := range workloads.SortVariants {
		traceFiles["t-"+string(v)+".json"] = `"ph"`
		traceFiles["t-"+string(v)+".prv"] = "#Paraver"
	}
	cases := []struct {
		name    string
		args    []string
		code    int
		want    []string // in stdout (stderr when code != 0)
		absent  []string // not in stdout
		files   map[string]string
		noFiles bool // the run must leave {dir} empty
	}{
		{name: "fig-3", args: []string{"-fig", "3"},
			want: []string{"Table I", "Figure 3 (top)", "Figure 3 (bottom)"}, absent: []string{"Figure 4"}},
		{name: "fig-4", args: []string{"-fig", "4"},
			want: []string{"Figure 4"}, absent: []string{"Table I", "Figure 3", "Figure 5"}},
		{name: "fig-5", args: []string{"-fig", "5"},
			want: []string{"Figure 5"}, absent: []string{"Figure 4", "Figure 6"}},
		{name: "fig-6", args: []string{"-fig", "6"},
			want: []string{"Figure 6"}, absent: []string{"Figure 5", "Figure 7"}},
		{name: "fig-7", args: []string{"-fig", "7"},
			want: []string{"Figure 7"}, absent: []string{"Figure 6", "wrote", "Extensions"}},
		{name: "all", args: nil,
			want:   []string{"Table I", "Figure 3", "Figure 4", "Figure 5", "Figure 6", "Figure 7"},
			absent: []string{"Extensions"}},
		{name: "ext", args: []string{"-fig", "7", "-ext"},
			want: []string{"Figure 7", "Extensions beyond the paper"}},
		{name: "fig-7-chrome-prv", args: []string{"-fig", "7", "-chrome", "{dir}/t", "-prv", "{dir}/t"},
			want: []string{"Figure 7", "wrote "}, files: traceFiles},
		{name: "replay", args: []string{"-replay"},
			want: []string{"Record-and-replay"}, absent: []string{"Figure"}},
		{name: "ws", args: []string{"-ws"},
			want: []string{"Worksharing chunk distribution"}, absent: []string{"Figure"}},
		{name: "out-file", args: []string{"-fig", "4", "-out", "{dir}/report.txt"},
			want: []string{"Figure 4"}, files: map[string]string{"report.txt": "Figure 4"}},
		{name: "csv-dir", args: []string{"-fig", "4", "-csv", "{dir}/csv"},
			want: []string{"Figure 4"}, files: map[string]string{"csv/fig4-scaling.csv": "# "}},
		{name: "unknown-figure", args: []string{"-fig", "9"}, code: 2,
			want: []string{"unknown figure 9"}, noFiles: true},
		{name: "unknown-flag", args: []string{"-nosuch"}, code: 2,
			want: []string{"-nosuch"}, noFiles: true},
		{name: "help", args: []string{"-h"}, code: 0, noFiles: true},
		{name: "unwritable-out", args: []string{"-fig", "4", "-out", "{dir}/missing/report.txt"}, code: 1,
			want: []string{"reproduce: "}, noFiles: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			args := []string{"-quick", "-cores", "2"}
			for _, a := range c.args {
				args = append(args, strings.ReplaceAll(a, "{dir}", dir))
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != c.code {
				t.Fatalf("run(%q) = %d, want %d; stderr:\n%s", args, code, c.code, stderr.String())
			}
			got := stdout.String()
			if c.code != 0 {
				got = stderr.String()
			}
			for _, s := range c.want {
				if !strings.Contains(got, s) {
					t.Errorf("output lacks %q:\n%s", s, got)
				}
			}
			for _, s := range c.absent {
				if strings.Contains(stdout.String(), s) {
					t.Errorf("output contains %q, which this invocation must not run:\n%s", s, stdout.String())
				}
			}
			for name, s := range c.files {
				data, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Errorf("%s not written: %v", name, err)
					continue
				}
				if !strings.Contains(string(data), s) {
					t.Errorf("%s lacks %q: %.80q", name, s, data)
				}
			}
			if c.noFiles {
				if entries, _ := os.ReadDir(dir); len(entries) != 0 {
					t.Errorf("run left %d entries in the output directory, want none", len(entries))
				}
			}
		})
	}
}
