// Command reproduce runs the paper's full evaluation — Table I and Figures
// 3 through 7 — in order, printing every table and series. Use -scale to
// approach the paper's problem sizes (they need several GiB of RAM and many
// core-hours) and -quick for a smoke pass.
//
// Usage:
//
//	reproduce [-fig N] [-scale 1.0] [-cores N] [-reps 3] [-quick] [-ext] [-out report.txt] [-csv dir]
//	reproduce -fig 7 [-chrome prefix] [-prv prefix]
//	reproduce -replay
//	reproduce -ws
//
// -fig selects one figure (3–7; Table I, the legend of the AXPY series,
// prints with Figure 3); 0, the default, runs all of them. -ext adds the
// experiments beyond the paper (blocked Cholesky at 16 virtual cores,
// granularity cutoffs, record-and-replay). -chrome and -prv additionally
// write the Figure 7 trace of each variant to <prefix>-<variant>.json
// (chrome://tracing, Perfetto) or <prefix>-<variant>.prv (Paraver).
//
// -replay runs only the record-and-replay graph-region experiment (the
// before/after per-sweep comparison of the taskgraph cache). -ws runs only
// the worksharing experiment (fine-grain loops as per-chunk tasks vs one
// chunk-distributed task per region).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/harness"
	"repro/internal/trace"
)

// figures maps each -fig value to its experiment.
var figures = map[int]func(io.Writer, harness.Options) error{
	3: harness.Fig3, 4: harness.Fig4, 5: harness.Fig5, 6: harness.Fig6, 7: harness.Fig7,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the selected experiments with their report on
// stdout, and returns the exit status: 0 on success, 1 when an experiment
// or an output file fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.Int("fig", 0, "figure to regenerate: 3-7 (0 = Table I and every figure)")
	scale := fs.Float64("scale", 1, "problem-size multiplier")
	cores := fs.Int("cores", 0, "real-mode worker count (default GOMAXPROCS)")
	reps := fs.Int("reps", 3, "repetitions per point (best kept)")
	quick := fs.Bool("quick", false, "tiny sizes for a fast smoke run")
	ext := fs.Bool("ext", false, "also run the beyond-the-paper extension experiments")
	replayBench := fs.Bool("replay", false, "run only the record-and-replay graph-region experiment")
	wsBench := fs.Bool("ws", false, "run only the worksharing chunk-distribution experiment")
	chrome := fs.String("chrome", "", "also write the Figure 7 traces as Chrome trace JSON to <prefix>-<variant>.json")
	prv := fs.String("prv", "", "also write the Figure 7 traces as Paraver-like PRV to <prefix>-<variant>.prv")
	out := fs.String("out", "", "also write the report to this file")
	csvDir := fs.String("csv", "", "also write each experiment's series as CSV files into this directory")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if _, ok := figures[*fig]; !ok && *fig != 0 {
		fmt.Fprintf(stderr, "reproduce: unknown figure %d (want 3-7, or 0 for all)\n", *fig)
		return 2
	}

	err := func() error {
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
		}
		w := stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = io.MultiWriter(stdout, f)
		}
		o := harness.Options{Scale: *scale, Cores: *cores, Reps: *reps, Quick: *quick, CSVDir: *csvDir}
		switch {
		case *replayBench:
			return harness.ReplayBench(w, o)
		case *wsBench:
			return harness.WSBench(w, o)
		case *fig == 0:
			if err := harness.All(w, o); err != nil {
				return err
			}
		default:
			if *fig == 3 {
				harness.Table1(w)
			}
			if err := figures[*fig](w, o); err != nil {
				return err
			}
		}
		if *chrome != "" {
			if err := exportTraces(w, o, *chrome, ".json", (*trace.Tracer).WriteChrome); err != nil {
				return err
			}
		}
		if *prv != "" {
			if err := exportTraces(w, o, *prv, ".prv", (*trace.Tracer).WritePRV); err != nil {
				return err
			}
		}
		if *ext {
			return harness.Extensions(w, o)
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintf(stderr, "reproduce: %v\n", err)
		return 1
	}
	return 0
}

// exportTraces writes the Figure 7 trace of each variant to
// <prefix>-<variant><ext> through write.
func exportTraces(w io.Writer, o harness.Options, prefix, ext string,
	write func(*trace.Tracer, io.Writer) error) error {
	return harness.ExportFig7(o, func(variant string, tr *trace.Tracer) error {
		name := fmt.Sprintf("%s-%s%s", prefix, variant, ext)
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		if err := write(tr, f); err != nil {
			f.Close()
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", name)
		return f.Close()
	})
}
