// Command bench is the repository's benchmark: six task programs written
// against the public nanos API, run on the runtime with production
// defaults, measured end to end with tracing off and layer by layer in a
// separate traced pass. See README.md in this directory.
//
//	bash bench/run.sh --workload fib_taskwait --seed 1 --seconds 16 --trace 0
//	cd bench && go run . -quick
//	cd bench && go run . -selfcheck
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all six)")
	seed := fs.Int64("seed", 1, "seed for the generated inputs; the only way inputs vary")
	seconds := fs.Float64("seconds", 16, "length of the measured phase of each pass")
	trace := fs.String("trace", "", "0: end-to-end metrics, wrappers off; 1: per-layer metrics from the traced pass (default: both)")
	quick := fs.Bool("quick", false, "tiny sizes and 2 reps per phase; for iteration, numbers not comparable")
	selfcheck := fs.Bool("selfcheck", false, "run two sets back to back and fail if they disagree beyond the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		return fmt.Errorf("--trace %q: want 0 or 1", *trace)
	}

	nproc := runtime.NumCPU()
	if nproc < 2 {
		// One core turns every "parallel" number into goroutine
		// interleaving; refuse rather than record it.
		return fmt.Errorf("host has %d CPU; the benchmark needs at least 2", nproc)
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	o := options{seed: *seed, seconds: *seconds, quick: *quick, workers: min(nproc, 4)}
	o.outDir = filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	runtime.GOMAXPROCS(o.workers)

	selected := workloads
	if *name != "" {
		wl, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{wl}
	}
	prov := provenance(root, o)
	if *selfcheck {
		return selfCheck(root, selected, o, prov)
	}
	var bad []string
	for i := range selected {
		for _, traced := range []bool{false, true} {
			if (*trace == "0" && traced) || (*trace == "1" && !traced) {
				continue
			}
			res, err := measure(&selected[i], o, traced)
			if err != nil {
				return err
			}
			report(res, prov)
			if !res.correct() {
				bad = append(bad, res.workload)
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("incorrect results on %s", strings.Join(bad, ", "))
	}
	return nil
}

func measure(wl *workload, o options, traced bool) (*result, error) {
	if traced {
		return measureLayers(wl, o)
	}
	return measureEndToEnd(wl, o), nil
}

// repoRoot finds the checkout: the directory holding BENCHMARK.json, which
// is the working directory under bench/run.sh and its parent under
// `go run .` inside bench/.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..; run from the repository root or from bench/")
}

// provenance describes the host and the build every number came from.
func provenance(root string, o options) map[string]any {
	return map[string]any{
		"commit":     commit(root),
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": o.workers,
		"cpu":        cpuModel(),
		"W":          o.workers,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"quick":      o.quick,
	}
}

// commit reads the checked-out commit from .git without running git;
// "unknown" where the checkout is not a repository.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	return "unknown"
}

func cpuModel() string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// defsFor returns the metrics a pass reports.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of the pass by name with its unit, the
// provenance, and last the one-line JSON result.
func report(res *result, prov map[string]any) {
	defs := defsFor(res.traced)
	pass := "end-to-end (wrappers off)"
	if res.traced {
		pass = "per-layer (traced pass and drives)"
	}
	if prov["quick"] == true {
		pass += "; -quick sizes, numbers not comparable"
	}
	fmt.Printf("# %s: %s\n", res.workload, pass)
	out := map[string]metricJSON{}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("bench: metric %s not measured on %s", d.name, res.workload))
		}
		fmt.Printf("%-32s %16.6g %s\n", d.name, v, d.unit)
		out[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	if res.firstErr != nil {
		fmt.Printf("first failure: %v\n", res.firstErr)
	}
	p := map[string]any{"workload": res.workload, "reps": res.reps}
	for k, v := range prov {
		p[k] = v
	}
	fmt.Printf("provenance %s\n", mustJSON(p))
	fmt.Println(mustJSON(resultJSON{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: out}))
}

// resultJSON is the last line of a pass's output.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings and numbers always marshal
	}
	return string(b)
}

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfCheck runs every selected workload twice, both passes, and fails if
// an end-to-end metric of the second set is worse than the first by more
// than its bound, or if run.tasks differs at all.
func selfCheck(root string, selected []workload, o options, prov map[string]any) error {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var sets [2]map[string]map[string]float64 // set → workload → metric
	for s := range sets {
		sets[s] = map[string]map[string]float64{}
		for i := range selected {
			wl := &selected[i]
			all := map[string]float64{}
			for _, traced := range []bool{false, true} {
				res, err := measure(wl, o, traced)
				if err != nil {
					return err
				}
				report(res, prov)
				if !res.correct() {
					return fmt.Errorf("set %d: incorrect result on %s: %v", s+1, wl.name, res.firstErr)
				}
				for k, v := range res.metrics {
					all[k] = v
				}
			}
			sets[s][wl.name] = all
		}
	}
	fmt.Println("# selfcheck: second set against first")
	fmt.Printf("%-22s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	var bad int
	for _, wl := range selected {
		a, b := sets[0][wl.name], sets[1][wl.name]
		for _, m := range bf.EndToEnd {
			worse := b[m.Name]/a[m.Name] - 1
			if m.Better == "higher" {
				worse = a[m.Name]/b[m.Name] - 1
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  FAIL"
				bad++
			}
			fmt.Printf("%-22s %-22s %14.6g %14.6g %8.1f%% %6.1f%%%s\n", wl.name, m.Name, a[m.Name], b[m.Name], 100*worse, 100*m.Bound, verdict)
		}
		if a["run.tasks"] != b["run.tasks"] {
			fmt.Printf("%-22s %-22s %14.0f %14.0f  FAIL: must repeat exactly\n", wl.name, "run.tasks", a["run.tasks"], b["run.tasks"])
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d disagreements", bad)
	}
	fmt.Println("selfcheck: ok")
	return nil
}
