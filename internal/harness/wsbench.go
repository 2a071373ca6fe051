package harness

import (
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/workloads"
)

// This file drives the worksharing experiment (beyond the paper's
// evaluation; the worksharing-tasks direction of PAPERS.md): fine-grained
// loop workloads run twice — decomposed into one task per chunk (the
// flat-depend variants, the shape the paper's listing 5 hand-writes) and as
// worksharing tasks (one dependency-carrying task per region,
// chunk-distributed body).
// The before/after wall times land in a table.

// WSBench measures the fine-grain loop workloads as one task per chunk and
// as worksharing regions.
func WSBench(w io.Writer, o Options) error {
	o = o.defaults()
	// Fine grains on purpose: chunks small enough that the per-task cost
	// of the baseline is comparable to the chunk body, which is the
	// regime worksharing tasks exist for.
	axP := workloads.AxpyParams{N: scaled(1<<20, o.Scale), Calls: 12, TaskSize: 256, Alpha: 1.5, Compute: true}
	gsP := workloads.GSParams{N: scaled(256, o.Scale), TS: 8, Iters: 8, Compute: true}
	if o.Quick {
		axP = workloads.AxpyParams{N: 1 << 16, Calls: 4, TaskSize: 128, Alpha: 1.5, Compute: true}
		gsP = workloads.GSParams{N: 64, TS: 8, Iters: 4, Compute: true}
	}
	t := metrics.NewTable(
		fmt.Sprintf("Worksharing chunk distribution — %d workers (before/after: per-chunk tasks vs one task per region)",
			o.Cores),
		"workload", "impl", "tasks", "wall", "regions", "helper-chks", "speedup")
	type run struct {
		impl string
		f    func() (workloads.Result, error)
	}
	type bench struct {
		name string
		runs [2]run // [0] = one task per chunk, [1] = worksharing
	}
	benches := []bench{
		{"axpy/fine-grain", [2]run{
			// Per TaskSize block the flat-depend leaf declares what the
			// worksharing region's chunks do: in x, inout y, Cost, Flops.
			{"flat-depend", func() (workloads.Result, error) {
				return workloads.RunAxpy(workloads.Mode{Workers: o.Cores}, workloads.AxpyFlatDepend, axP)
			}},
			{"chunked", func() (workloads.Result, error) {
				return workloads.RunAxpy(workloads.Mode{Workers: o.Cores}, workloads.AxpyWorksharing, axP)
			}},
		}},
		{"gauss-seidel/fine-tiles", [2]run{
			// The per-task-per-tile baseline is the flat-depend variant
			// (expanding the wavefront's union entries per tile would
			// serialize the tiles — see GSWsWavefront).
			{"flat-depend", func() (workloads.Result, error) {
				return workloads.RunGS(workloads.Mode{Workers: o.Cores}, workloads.GSFlatDepend, gsP)
			}},
			{"ws-wavefront", func() (workloads.Result, error) {
				return workloads.RunGS(workloads.Mode{Workers: o.Cores}, workloads.GSWsWavefront, gsP)
			}},
		}},
	}
	for _, b := range benches {
		var base float64
		for i, r := range b.runs {
			res, err := best(o.Reps, r.f)
			if err != nil {
				return err
			}
			st := res.Runtime.WsStats()
			wallMS := float64(res.Wall.Microseconds()) / 1000
			speedup := "1.00x"
			if i == 0 {
				base = wallMS
			} else if wallMS > 0 {
				speedup = fmt.Sprintf("%.2fx", base/wallMS)
			}
			t.Add(b.name, r.impl, fmt.Sprintf("%d", res.Tasks),
				res.Wall.Round(10000).String(), fmt.Sprintf("%d", st.Regions),
				fmt.Sprintf("%d", st.HelperChunks), speedup)
		}
	}
	fmt.Fprintln(w, t)
	return nil
}
