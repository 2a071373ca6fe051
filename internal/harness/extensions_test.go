package harness

import (
	"fmt"
	"strings"
	"testing"
)

func TestCholeskyQuick(t *testing.T) {
	var b strings.Builder
	if err := Cholesky(&b, Options{Quick: true}, 8); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"GFlop/s", "effective parallelism", "nest-weak", "flat-depend", "nest-depend"} {
		if !strings.Contains(out, want) {
			t.Errorf("Cholesky report missing %q:\n%s", want, out)
		}
	}
}

func TestFibOverheadQuick(t *testing.T) {
	var b strings.Builder
	if err := FibOverhead(&b, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"none", "sequential", "final", "µs/task"} {
		if !strings.Contains(out, want) {
			t.Errorf("FibOverhead report missing %q:\n%s", want, out)
		}
	}
}

// tableRows returns the whitespace-split cells of every line of a printed
// table, keyed by "<first cell>/<second cell>".
func tableRows(out string) map[string][]string {
	rows := map[string][]string{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) >= 2 {
			rows[f[0]+"/"+f[1]] = f
		}
	}
	return rows
}

// TestWSBenchQuick: the worksharing table (reproduce -ws) has a baseline and
// a worksharing row per workload, and only the worksharing rows run
// chunk-distributed regions.
func TestWSBenchQuick(t *testing.T) {
	var b strings.Builder
	if err := WSBench(&b, Options{Quick: true, Cores: 2}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	rows := tableRows(out)
	for _, r := range []struct {
		row        string
		wantRegion bool
	}{
		{"axpy/fine-grain/expand", false},
		{"axpy/fine-grain/chunked", true},
		{"gauss-seidel/fine-tiles/flat-depend", false},
		{"gauss-seidel/fine-tiles/ws-wavefront", true},
	} {
		f, ok := rows[r.row]
		if !ok || len(f) != 7 {
			t.Errorf("row %s missing or malformed (%q):\n%s", r.row, f, out)
			continue
		}
		if regions := f[4]; (regions != "0") != r.wantRegion {
			t.Errorf("row %s: regions = %s, want chunk-distributed regions: %v", r.row, regions, r.wantRegion)
		}
	}
}

// TestReplayBenchQuick: in the record-and-replay table (reproduce -replay)
// the cache-off rows neither record nor replay, and with the cache on every
// sweep either records a graph or replays one over the same task count.
func TestReplayBenchQuick(t *testing.T) {
	var b strings.Builder
	if err := ReplayBench(&b, Options{Quick: true, Cores: 2}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	rows := tableRows(out)
	const sweeps = 8 // the quick-mode iteration count of both workloads
	for _, wl := range []string{"gauss-seidel/graph", "heat/jacobi"} {
		off, on := rows[wl+"/off"], rows[wl+"/on"]
		if len(off) != 8 || len(on) != 8 {
			t.Errorf("%s: off/on rows missing or malformed (%q, %q):\n%s", wl, off, on, out)
			continue
		}
		if off[5] != "0" || off[6] != "0" {
			t.Errorf("%s: cache-off row records %s, replays %s; want 0 and 0", wl, off[5], off[6])
		}
		if off[2] != on[2] {
			t.Errorf("%s: task count %s with the cache off, %s with it on", wl, off[2], on[2])
		}
		var records, replays int
		fmt.Sscan(on[5], &records)
		fmt.Sscan(on[6], &replays)
		if records == 0 || records+replays != sweeps {
			t.Errorf("%s: cache-on row records %d, replays %d; want at least one record and %d sweeps in all",
				wl, records, replays, sweeps)
		}
	}
}

func TestExtensionsQuick(t *testing.T) {
	var b strings.Builder
	if err := Extensions(&b, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Extensions beyond the paper") {
		t.Error("Extensions header missing")
	}
}
