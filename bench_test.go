package nanos_test

// One benchmark per figure of the paper (§VIII), plus ablations of the
// design choices called out in docs/ARCHITECTURE.md. Table I is a feature
// matrix, not a measurement; internal/harness's TestTable1 checks it.
// Sizes are scaled so that `go test -bench=. -benchmem` completes in
// minutes on a laptop; cmd/reproduce runs the full sweeps.
//
// Custom metrics: gflop/s (figures 3-5), miss-ratio (figure 3 bottom),
// eff-par (figure 6), overlap-frac (figure 7).

import (
	"fmt"
	"testing"

	nanos "repro"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// BenchmarkFig3AxpyTaskSize: AXPY GFlop/s per variant and task size (real
// mode, host cores). Figure 3 top; the bottom panel's miss ratio is
// reported as a secondary metric from a cache-simulated run.
func BenchmarkFig3AxpyTaskSize(b *testing.B) {
	b.ReportAllocs()
	const n = 1 << 20
	for _, ts := range []int64{4 << 10, 16 << 10, 64 << 10} {
		for _, v := range workloads.AxpyVariants {
			b.Run(fmt.Sprintf("ts=%dKi/%s", ts>>10, v), func(b *testing.B) {
				b.ReportAllocs()
				p := workloads.AxpyParams{N: n, Calls: 8, TaskSize: ts, Alpha: 1, Compute: true}
				var last workloads.Result
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := workloads.RunAxpy(workloads.Mode{Workers: 0}, v, p)
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.StopTimer()
				b.ReportMetric(last.GFlops(), "gflop/s")
				cache := nanos.DefaultL2Cache()
				cres, err := workloads.RunAxpy(workloads.Mode{Workers: 0, Cache: &cache}, v, p)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(cres.MissRatio, "miss-ratio")
			})
		}
	}
}

// BenchmarkFig4AxpyScaling: AXPY strong scaling on virtual cores (4–48),
// leaf tasks of 14·2¹⁰ elements. Figure 4.
func BenchmarkFig4AxpyScaling(b *testing.B) {
	b.ReportAllocs()
	p := workloads.AxpyParams{N: 4 << 20, Calls: 8, TaskSize: 14 << 10, Alpha: 1, Compute: false}
	for _, cores := range []int{4, 16, 48} {
		for _, v := range workloads.AxpyVariants {
			b.Run(fmt.Sprintf("cores=%d/%s", cores, v), func(b *testing.B) {
				b.ReportAllocs()
				var last workloads.Result
				for i := 0; i < b.N; i++ {
					res, err := workloads.RunAxpy(workloads.Mode{Workers: cores, Virtual: true}, v, p)
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				// In virtual mode GFlops is flops per cost unit — the
				// figure's y axis up to a constant.
				b.ReportMetric(last.GFlops(), "gflop/s")
				b.ReportMetric(last.EffectiveParallelism, "eff-par")
			})
		}
	}
}

// BenchmarkFig5GSTaskSize: Gauss-Seidel GFlop/s per variant and tile size
// (real mode). Figure 5.
func BenchmarkFig5GSTaskSize(b *testing.B) {
	b.ReportAllocs()
	for _, ts := range []int64{32, 64, 128} {
		for _, v := range workloads.GSVariants {
			b.Run(fmt.Sprintf("ts=%d/%s", ts, v), func(b *testing.B) {
				b.ReportAllocs()
				p := workloads.GSParams{N: 512, TS: ts, Iters: 6, Compute: true}
				var last workloads.Result
				for i := 0; i < b.N; i++ {
					res, err := workloads.RunGS(workloads.Mode{Workers: 0}, v, p)
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(last.GFlops(), "gflop/s")
			})
		}
	}
}

// BenchmarkFig6GSScaling: Gauss-Seidel effective parallelism on virtual
// cores for 64×64 and 128×128 tiles. Figure 6.
func BenchmarkFig6GSScaling(b *testing.B) {
	b.ReportAllocs()
	for _, ts := range []int64{64, 128} {
		for _, cores := range []int{8, 24, 48} {
			for _, v := range workloads.GSVariants {
				b.Run(fmt.Sprintf("ts=%d/cores=%d/%s", ts, cores, v), func(b *testing.B) {
					b.ReportAllocs()
					p := workloads.GSParams{N: 1024, TS: ts, Iters: 6, Compute: false}
					var last workloads.Result
					for i := 0; i < b.N; i++ {
						res, err := workloads.RunGS(workloads.Mode{Workers: cores, Virtual: true}, v, p)
						if err != nil {
							b.Fatal(err)
						}
						last = res
					}
					b.ReportMetric(last.EffectiveParallelism, "eff-par")
				})
			}
		}
	}
}

// BenchmarkFig7SortPrefix: quicksort + prefix sum, reporting the fraction
// of time the two phases overlap (weak ≫ 0, regular = 0). Figure 7.
func BenchmarkFig7SortPrefix(b *testing.B) {
	b.ReportAllocs()
	p := workloads.SortParams{N: 1 << 16, TS: 1 << 9, Seed: 3}
	for _, v := range workloads.SortVariants {
		b.Run(string(v), func(b *testing.B) {
			b.ReportAllocs()
			var frac float64
			for i := 0; i < b.N; i++ {
				res, err := workloads.RunSortSum(
					workloads.Mode{Workers: 8, Virtual: true, Trace: true}, v, p)
				if err != nil {
					b.Fatal(err)
				}
				tr := res.Runtime.Tracer()
				sortK, prefK := harness.SortPrefixKinds(tr)
				frac = float64(tr.Overlap(sortK, prefK)) / float64(res.VirtualTime)
			}
			b.ReportMetric(frac, "overlap-frac")
		})
	}
}

// BenchmarkAblationHandoff isolates the direct successor hand-off policy
// (the locality mechanism behind Figure 3's miss ratios).
func BenchmarkAblationHandoff(b *testing.B) {
	b.ReportAllocs()
	p := workloads.AxpyParams{N: 1 << 20, Calls: 8, TaskSize: 16 << 10, Alpha: 1, Compute: false}
	cache := nanos.DefaultL2Cache()
	for _, handoff := range []bool{true, false} {
		b.Run(fmt.Sprintf("handoff=%v", handoff), func(b *testing.B) {
			b.ReportAllocs()
			var miss float64
			for i := 0; i < b.N; i++ {
				res, err := workloads.RunAxpy(workloads.Mode{
					Workers: 8, Virtual: true, NoHandoff: !handoff, Cache: &cache,
				}, workloads.AxpyNestWeak, p)
				if err != nil {
					b.Fatal(err)
				}
				miss = res.MissRatio
			}
			b.ReportMetric(miss, "miss-ratio")
		})
	}
}

// BenchmarkAblationThrottle measures the task-creation throttle (bounded
// lookahead window, §III) on the flat-depend AXPY: first the window sweep
// at the default worker count, then the window × worker-count contention
// matrix on the end-to-end workload (the window alone, without the rest of
// the runtime, is internal/throttle's contention matrix).
func BenchmarkAblationThrottle(b *testing.B) {
	b.ReportAllocs()
	p := workloads.AxpyParams{N: 1 << 19, Calls: 8, TaskSize: 4 << 10, Alpha: 1, Compute: true}
	for _, window := range []int{0, 64, 512} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := workloads.RunAxpy(workloads.Mode{Workers: 0, Throttle: window},
					workloads.AxpyFlatDepend, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, window := range []int{16, 256} {
		for _, workers := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("window=%d/w=%d", window, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := workloads.RunAxpy(workloads.Mode{Workers: workers, Throttle: window},
						workloads.AxpyFlatDepend, p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationReleaseGranularity compares the Gauss-Seidel release
// granularities the paper discusses in §VIII-B: none, per-block, per-panel.
func BenchmarkAblationReleaseGranularity(b *testing.B) {
	b.ReportAllocs()
	base := workloads.GSParams{N: 512, TS: 64, Iters: 6, Compute: true}
	cases := []struct {
		name    string
		variant workloads.GSVariant
		panel   bool
	}{
		{"none", workloads.GSNestWeak, false},
		{"block", workloads.GSNestWeakRelease, false},
		{"panel", workloads.GSNestWeakRelease, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			p := base
			p.ReleaseByPanel = c.panel
			var last workloads.Result
			for i := 0; i < b.N; i++ {
				res, err := workloads.RunGS(workloads.Mode{Workers: 0}, c.variant, p)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.GFlops(), "gflop/s")
		})
	}
}

// BenchmarkAblationScheduler compares dispatch on the flat-depend AXPY:
// Cilk-style work stealing with and without the direct successor hand-off
// that the paper's locality results rely on.
func BenchmarkAblationScheduler(b *testing.B) {
	b.ReportAllocs()
	p := workloads.AxpyParams{N: 1 << 19, Calls: 8, TaskSize: 8 << 10, Alpha: 1, Compute: true}
	cases := []struct {
		name string
		mode workloads.Mode
	}{
		{"stealing", workloads.Mode{Workers: 0}},
		{"stealing-nohandoff", workloads.Mode{Workers: 0, NoHandoff: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := workloads.RunAxpy(c.mode, workloads.AxpyFlatDepend, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDependencyOverhead isolates the dependency-tracking cost
// exactly as the paper does (§VIII-A): flat-taskwait (no dependencies)
// versus flat-depend (same schedule constraints expressed as dependencies).
func BenchmarkAblationDependencyOverhead(b *testing.B) {
	b.ReportAllocs()
	p := workloads.AxpyParams{N: 1 << 19, Calls: 8, TaskSize: 4 << 10, Alpha: 1, Compute: true}
	for _, v := range []workloads.AxpyVariant{workloads.AxpyFlatTaskwait, workloads.AxpyFlatDepend} {
		b.Run(string(v), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := workloads.RunAxpy(workloads.Mode{Workers: 0}, v, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCacheModel compares the two L2 models on the Figure 3
// workload: per-worker private shares (the default approximation) versus
// the physically shared 16 MiB cache. The locality ordering between
// variants must hold under both; the shared model additionally captures
// constructive sharing between workers.
func BenchmarkAblationCacheModel(b *testing.B) {
	b.ReportAllocs()
	// 2 vectors × 2²² × 8 B = 64 MiB working set: larger than the 16 MiB
	// shared L2, so locality still decides the miss ratio under both models.
	p := workloads.AxpyParams{N: 1 << 22, Calls: 8, TaskSize: 16 << 10, Alpha: 1, Compute: false}
	private := nanos.DefaultL2Cache()
	shared := nanos.DefaultSharedL2Cache()
	for _, v := range []workloads.AxpyVariant{workloads.AxpyNestWeak, workloads.AxpyNestDepend} {
		b.Run("private/"+string(v), func(b *testing.B) {
			b.ReportAllocs()
			var miss float64
			for i := 0; i < b.N; i++ {
				res, err := workloads.RunAxpy(workloads.Mode{Workers: 8, Virtual: true, Cache: &private}, v, p)
				if err != nil {
					b.Fatal(err)
				}
				miss = res.MissRatio
			}
			b.ReportMetric(miss, "miss-ratio")
		})
		b.Run("shared/"+string(v), func(b *testing.B) {
			b.ReportAllocs()
			var miss float64
			for i := 0; i < b.N; i++ {
				res, err := workloads.RunAxpy(workloads.Mode{
					Workers: 8, Virtual: true, Cache: &shared, SharedCache: true}, v, p)
				if err != nil {
					b.Fatal(err)
				}
				miss = res.MissRatio
			}
			b.ReportMetric(miss, "miss-ratio")
		})
	}
}

// BenchmarkCholeskyVariants: blocked Cholesky factorization (the dense
// linear algebra workload motivating the paper's introduction via [3]) in
// the three nesting formulations. Real-mode GFlop/s plus the virtual-mode
// effective parallelism at 16 cores.
func BenchmarkCholeskyVariants(b *testing.B) {
	b.ReportAllocs()
	p := workloads.CholParams{N: 512, TS: 64, Seed: 9, Compute: true}
	for _, v := range workloads.CholVariants {
		b.Run(string(v), func(b *testing.B) {
			b.ReportAllocs()
			var last workloads.Result
			for i := 0; i < b.N; i++ {
				res, err := workloads.RunCholesky(workloads.Mode{Workers: 0}, v, p)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.GFlops(), "gflop/s")
			vp := p
			vp.Compute = false
			vres, err := workloads.RunCholesky(workloads.Mode{Workers: 16, Virtual: true}, v, vp)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(vres.EffectiveParallelism, "eff-par")
		})
	}
}

// BenchmarkSparseLUVariants: blocked sparse LU with fill-in (the BOTS
// workload) in the three nesting formulations; the task set is
// data-dependent on the sparsity pattern.
func BenchmarkSparseLUVariants(b *testing.B) {
	b.ReportAllocs()
	p := workloads.SparseLUParams{B: 16, TS: 32, Density: 0.35, Seed: 4, Compute: true}
	for _, v := range workloads.SparseLUVariants {
		b.Run(string(v), func(b *testing.B) {
			b.ReportAllocs()
			var last workloads.Result
			var fills int64
			for i := 0; i < b.N; i++ {
				res, f, err := workloads.RunSparseLU(workloads.Mode{Workers: 0}, v, p)
				if err != nil {
					b.Fatal(err)
				}
				last, fills = res, f
			}
			b.ReportMetric(last.GFlops(), "gflop/s")
			b.ReportMetric(float64(fills), "fill-ins")
		})
	}
}

// BenchmarkMicroFibCutoff: recursive Fibonacci through the dependency
// engine under the three granularity cutoffs — full tasking, the
// sequential cutoff, and the OpenMP final clause (included tasks). The gap
// between "none" and the cutoffs is the per-task runtime overhead that
// granularity control exists to avoid.
func BenchmarkMicroFibCutoff(b *testing.B) {
	b.ReportAllocs()
	for _, m := range []workloads.FibCutoffMode{
		workloads.FibCutoffNone, workloads.FibCutoffSequential, workloads.FibCutoffFinal,
	} {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			var tasks int64
			for i := 0; i < b.N; i++ {
				res, _, err := workloads.RunFib(workloads.Mode{Workers: 0},
					workloads.FibParams{N: 21, Cutoff: 12, Mode: m})
				if err != nil {
					b.Fatal(err)
				}
				tasks = res.Tasks
			}
			b.ReportMetric(float64(tasks), "tasks")
		})
	}
}

// BenchmarkMicroNQueens: pure-nesting task search waited with a taskgroup.
func BenchmarkMicroNQueens(b *testing.B) {
	b.ReportAllocs()
	for _, depth := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, got, err := workloads.RunNQueens(workloads.Mode{Workers: 0},
					workloads.NQueensParams{N: 10, Depth: depth})
				if err != nil {
					b.Fatal(err)
				}
				if got != 724 {
					b.Fatalf("nqueens(10) = %d, want 724", got)
				}
			}
		})
	}
}

// BenchmarkEngineRegister: micro-benchmark of dependency registration and
// release for a chain of tasks over one region (runtime-overhead floor).
func BenchmarkEngineRegister(b *testing.B) {
	b.ReportAllocs()
	rt := nanos.New(nanos.Config{Workers: 1})
	d := rt.NewData("x", 1, 8)
	b.ResetTimer()
	rt.Run(func(tc *nanos.TaskContext) {
		for i := 0; i < b.N; i++ {
			tc.Submit(nanos.TaskSpec{
				Label: "t",
				Deps:  []nanos.Dep{nanos.DInOut(d, nanos.Iv(0, 1))},
			})
		}
	})
}

// BenchmarkTaskSpawn: micro-benchmark of bare task creation + execution
// without dependencies.
func BenchmarkTaskSpawn(b *testing.B) {
	b.ReportAllocs()
	rt := nanos.New(nanos.Config{Workers: 4})
	b.ResetTimer()
	rt.Run(func(tc *nanos.TaskContext) {
		for i := 0; i < b.N; i++ {
			tc.Submit(nanos.TaskSpec{Label: "t"})
		}
	})
}
