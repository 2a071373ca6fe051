package main

import (
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"testing"
)

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesCatalog holds BENCHMARK.json and the metric and
// workload lists in the code together: same names, same units.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b := readBenchmarkJSON(t)
	check := func(kind string, listed []benchmarkMetric, defs []metricDef, bounded bool) {
		units := map[string]string{}
		for _, d := range defs {
			units[d.name] = d.unit
		}
		seen := map[string]bool{}
		for _, m := range listed {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s %q: bad name", kind, m.Name)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %s: bad unit %q", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, m.Name, m.Better)
			}
			if seen[m.Name] {
				t.Errorf("%s %s listed twice", kind, m.Name)
			}
			seen[m.Name] = true
			if unit, ok := units[m.Name]; !ok {
				t.Errorf("%s %s is in BENCHMARK.json but the benchmark does not emit it", kind, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s %s: unit %q in BENCHMARK.json, %q in the benchmark", kind, m.Name, m.Unit, unit)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s %s: bound present = %v", kind, m.Name, m.Bound != nil)
			} else if bounded && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, m.Name, *m.Bound)
			}
		}
		for _, d := range defs {
			if !seen[d.name] {
				t.Errorf("%s %s is emitted but missing from BENCHMARK.json", kind, d.name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)

	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("workload %q is in BENCHMARK.json but not in the benchmark", w.Name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
}

// TestQuickAllWorkloads runs both passes of every workload at -quick size:
// outputs verify against the sequential references, every metric the pass
// should report is measured exactly once and is a number, run.tasks
// repeats, and a trace file is written.
func TestQuickAllWorkloads(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("the benchmark refuses hosts with one CPU")
	}
	o := options{seed: 7, seconds: 1, quick: true, workers: min(runtime.NumCPU(), 4), outDir: t.TempDir()}
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			var tasks [2]float64
			for round := range tasks {
				for _, traced := range []bool{false, true} {
					res, err := measure(wl, o, traced)
					if err != nil {
						t.Fatal(err)
					}
					if !res.correct() {
						t.Fatalf("traced=%v: %d of %d failed: %v", traced, res.failed, res.attempted, res.firstErr)
					}
					defs := defsFor(traced)
					if len(res.metrics) != len(defs) {
						t.Errorf("traced=%v: %d metrics measured, want %d", traced, len(res.metrics), len(defs))
					}
					for _, d := range defs {
						v, ok := res.metrics[d.name]
						if !ok || v != v || v < 0 {
							t.Errorf("traced=%v: metric %s = %v, measured = %v", traced, d.name, v, ok)
						}
					}
					if traced {
						tasks[round] = res.metrics["run.tasks"]
					}
				}
			}
			if tasks[0] != tasks[1] || tasks[0] == 0 {
				t.Errorf("run.tasks = %v, then %v", tasks[0], tasks[1])
			}
			if _, err := os.Stat(o.outDir + "/trace-" + wl.name + ".json"); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSelfTimeWithinSpan checks the tracer's accounting on every workload:
// a span's self time is its duration minus its synchronous children, so it
// can be neither negative nor larger than the span.
func TestSelfTimeWithinSpan(t *testing.T) {
	const workers = 2
	for i := range workloads {
		wl := &workloads[i]
		p := wl.build(3, true)
		p.reference()
		x := newTracer(workers)
		r := runRep(p, wl.config(options{workers: workers}, workers), x)
		if r.err != nil {
			t.Fatalf("%s: %v", wl.name, r.err)
		}
		tr := x.collect()
		if len(tr.spans) == 0 {
			t.Fatalf("%s: no spans", wl.name)
		}
		if err := tr.checkSelfTimes(); err != nil {
			t.Errorf("%s: %v", wl.name, err)
		}
	}
}

// TestQuietRepsIgnoreSlowSpell checks the selection the end-to-end timings
// use: a slow spell over 70% of the reps moves neither timing, whichever way
// it moves CPU time, and a change to every rep moves both one for one.
func TestQuietRepsIgnoreSlowSpell(t *testing.T) {
	var clean, spell, slower []rep
	for i := 0; i < 100; i++ {
		r := rep{wallMs: 100 + float64(i%5), cpuMs: 160 + float64(i%3)}
		clean = append(clean, r)
		slower = append(slower, rep{wallMs: 1.2 * r.wallMs, cpuMs: 1.2 * r.cpuMs})
		if i < 70 {
			r.wallMs *= 1.4
			r.cpuMs *= 0.8 // a neighbour took the idle worker's core
		}
		spell = append(spell, r)
	}
	timings := func(reps []rep) (wall, cpu float64) {
		q := quiet(reps)
		return median(column(q, wallOf)), median(column(q, cpuOf))
	}
	w0, c0 := timings(clean)
	if w, c := timings(spell); w > 1.03*w0 || c < 0.97*c0 || c > 1.03*c0 {
		t.Errorf("wall, cpu = %v, %v clean; %v, %v with a slow spell", w0, c0, w, c)
	}
	if w, c := timings(slower); w < 1.19*w0 || w > 1.21*w0 || c < 1.19*c0 || c > 1.21*c0 {
		t.Errorf("wall, cpu = %v, %v; %v, %v when every rep is 20%% slower", w0, c0, w, c)
	}
}
