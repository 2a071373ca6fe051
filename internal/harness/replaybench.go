package harness

import (
	"fmt"
	"io"

	nanos "repro"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// This file drives the record-and-replay experiment (beyond the paper's
// evaluation; the Taskgraph direction of PAPERS.md): the graph-region
// formulations of the Gauss-Seidel and heat sweeps run with the cache off
// (every sweep through the live dependency engine) and on (first sweep
// records, the rest replay frozen countdown graphs), and the per-sweep
// times land in a table.

// ReplayBench measures the graph-region sweeps with the cache off and on.
func ReplayBench(w io.Writer, o Options) error {
	o = o.defaults()
	gsP := workloads.GSParams{N: scaled(512, o.Scale), TS: 32, Iters: 24, Compute: true}
	heatP := workloads.HeatParams{N: scaled(512, o.Scale), TS: 32, Iters: 24, Compute: true}
	if o.Quick {
		gsP = workloads.GSParams{N: 128, TS: 16, Iters: 8, Compute: true}
		heatP = workloads.HeatParams{N: 128, TS: 16, Iters: 8, Compute: true}
	}
	t := metrics.NewTable(
		fmt.Sprintf("Record-and-replay graph regions — %d workers, %d sweeps (before/after per-sweep time)",
			o.Cores, gsP.Iters),
		"workload", "replay", "tasks", "wall", "ms/sweep", "records", "replays", "speedup")
	type bench struct {
		name  string
		iters int
		run   func(mode workloads.Mode) (workloads.Result, error)
	}
	benches := []bench{
		{"gauss-seidel/graph", gsP.Iters, func(m workloads.Mode) (workloads.Result, error) {
			return workloads.RunGS(m, workloads.GSGraph, gsP)
		}},
		{"heat/jacobi", heatP.Iters, func(m workloads.Mode) (workloads.Result, error) {
			return workloads.RunHeat(m, heatP)
		}},
	}
	for _, b := range benches {
		var base float64
		for _, kind := range []nanos.ReplayKind{nanos.ReplayOff, nanos.ReplayOn} {
			mode := workloads.Mode{Workers: o.Cores, Replay: kind}
			res, err := best(o.Reps, func() (workloads.Result, error) { return b.run(mode) })
			if err != nil {
				return err
			}
			st := res.Runtime.ReplayStats()
			perSweep := float64(res.Wall.Microseconds()) / 1000 / float64(b.iters)
			speedup := "1.00x"
			if kind == nanos.ReplayOff {
				base = perSweep
			} else if perSweep > 0 {
				speedup = fmt.Sprintf("%.2fx", base/perSweep)
			}
			t.Add(b.name, kind.String(), fmt.Sprintf("%d", res.Tasks),
				res.Wall.Round(10000).String(), fmt.Sprintf("%.3f", perSweep),
				fmt.Sprintf("%d", st.Records), fmt.Sprintf("%d", st.Replays), speedup)
		}
	}
	fmt.Fprintln(w, t)
	return nil
}
