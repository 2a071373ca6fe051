package workloads

import (
	"fmt"
	"testing"
)

// Golden virtual-mode makespans. Virtual execution is deterministic, so
// these pin the combined semantics of the dependency engine (linking,
// weakwait hand-over, weak propagation) and the virtual scheduler (FIFO
// dispatch, hand-off, arrival times) against accidental change. A diff
// here is not necessarily a bug — an intentional semantic or scheduling
// change legitimately moves the numbers — but it must be reviewed and the
// constants re-recorded, and the *orderings* each workload's subtest
// asserts must always survive.
//
// The constants do not depend on the engine implementation:
// TestVirtualEngineParity (internal/core) keeps the single-mutex reference
// engine's virtual makespans equal to those of the sharded pooled engine
// virtual mode runs. Every run sets Debug, so a dependency object the
// pooled engine fails to recycle in virtual mode fails this test.
func TestGoldenVirtualMakespans(t *testing.T) {
	axpy := map[AxpyVariant]int64{
		AxpyNestWeakRelease: 8385,
		AxpyNestWeak:        8385,
		AxpyNestDepend:      8724,
		AxpyFlatDepend:      8320,
		AxpyFlatTaskwait:    8724,
	}
	gs := map[GSVariant]int64{
		GSNestWeak:        16384,
		GSNestWeakRelease: 16384,
		GSFlatDepend:      13312,
		GSNestDepend:      28672,
	}
	chol := map[CholVariant]int64{
		CholNestWeak:   2271914,
		CholFlatDepend: 2271914,
		CholNestDepend: 2446676,
	}

	// The orderings that must hold regardless of the exact constants: the
	// weak variants never lose to nest-depend, and GS nest-weak tracks
	// flat-depend within a small factor.
	t.Run("axpy", func(t *testing.T) {
		got := map[AxpyVariant]int64{}
		for _, v := range AxpyVariants {
			res, err := RunAxpy(Mode{Workers: 8, Virtual: true, SubmitCost: 16, Debug: true}, v,
				AxpyParams{N: 1 << 14, Calls: 4, TaskSize: 1 << 11, Alpha: 1, Compute: false})
			if err != nil {
				t.Fatal(err)
			}
			got[v] = res.VirtualTime
			if res.VirtualTime != axpy[v] {
				t.Errorf("axpy %s makespan = %d, golden %d", v, res.VirtualTime, axpy[v])
			}
		}
		if got[AxpyNestWeak] > got[AxpyNestDepend] {
			t.Error(orderErr("axpy", "nest-weak", got[AxpyNestWeak], "nest-depend", got[AxpyNestDepend]))
		}
	})

	t.Run("gs", func(t *testing.T) {
		got := map[GSVariant]int64{}
		for _, v := range GSVariants {
			res, err := RunGS(Mode{Workers: 8, Virtual: true, Debug: true}, v,
				GSParams{N: 128, TS: 32, Iters: 4, Compute: false})
			if err != nil {
				t.Fatal(err)
			}
			got[v] = res.VirtualTime
			if res.VirtualTime != gs[v] {
				t.Errorf("gs %s makespan = %d, golden %d", v, res.VirtualTime, gs[v])
			}
		}
		if got[GSNestWeak] > got[GSNestDepend] {
			t.Error(orderErr("gs", "nest-weak", got[GSNestWeak], "nest-depend", got[GSNestDepend]))
		}
		if f := float64(got[GSNestWeak]) / float64(got[GSFlatDepend]); f > 1.5 {
			t.Errorf("gs nest-weak %.2fx slower than flat-depend", f)
		}
	})

	t.Run("cholesky", func(t *testing.T) {
		for _, v := range CholVariants {
			res, err := RunCholesky(Mode{Workers: 8, Virtual: true, Debug: true}, v,
				CholParams{N: 256, TS: 64, Seed: 1, Compute: false})
			if err != nil {
				t.Fatal(err)
			}
			if res.VirtualTime != chol[v] {
				t.Errorf("cholesky %s makespan = %d, golden %d", v, res.VirtualTime, chol[v])
			}
		}
	})
}

func orderErr(bench, a string, av int64, b string, bv int64) string {
	return fmt.Sprintf("%s: %s (%d) slower than %s (%d); the paper's ordering is violated",
		bench, a, av, b, bv)
}

// TestGoldenEngineSchedulerMatrix runs the three compute-validating
// workloads (cholesky, sparselu, sortsum) on the work-stealing pool (at 8
// workers even in short mode, so steals and the creator lane are
// exercised), with and without successor hand-off (without it every
// readied successor goes through the pool, a second dispatch order), in
// real mode with computation enabled, so each run's numerical result is
// checked against the sequential oracle.
// This is the workload-level completion of the differential tests in
// internal/deps: whatever the dispatch order, the dependency semantics
// must produce oracle-identical numerics.
func TestGoldenEngineSchedulerMatrix(t *testing.T) {
	workers := 8
	if testing.Short() {
		workers = 4
	}
	modes := []struct {
		name string
		mode Mode
	}{
		{"stealing", Mode{Workers: 8, Debug: true}},
		{"stealing-nohandoff", Mode{Workers: workers, NoHandoff: true, Debug: true}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			runGoldenOracle(t, m.mode)
		})
	}
}

// TestGoldenSingleWorkerPools repeats the oracle check with one worker —
// the stealing pool without a thief, where every taskwait helps — with and
// without successor hand-off.
func TestGoldenSingleWorkerPools(t *testing.T) {
	modes := []struct {
		name string
		mode Mode
	}{
		{"stealing", Mode{Workers: 1, Debug: true}},
		{"stealing-nohandoff", Mode{Workers: 1, NoHandoff: true, Debug: true}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			runGoldenOracle(t, m.mode)
		})
	}
}

// runGoldenOracle runs every cholesky, sparselu and sortsum variant under
// mode with computation enabled, one subtest per workload; each Run*
// checks its result against the sequential oracle, and the dependency
// statistics must show no leaked fragment.
func runGoldenOracle(t *testing.T, mode Mode) {
	t.Helper()
	t.Run("cholesky", func(t *testing.T) {
		for _, v := range CholVariants {
			res, err := RunCholesky(mode, v, CholParams{N: 128, TS: 32, Seed: 7, Compute: true})
			if err != nil {
				t.Fatalf("cholesky %s: %v", v, err)
			}
			if st := res.Runtime.DepStats(); st.Releases < st.Fragments {
				t.Fatalf("cholesky %s: %d fragments, %d releases (leak)", v, st.Fragments, st.Releases)
			}
		}
	})
	t.Run("sparselu", func(t *testing.T) {
		for _, v := range SparseLUVariants {
			res, _, err := RunSparseLU(mode, v, SparseLUParams{B: 6, TS: 16, Density: 0.5, Seed: 7, Compute: true})
			if err != nil {
				t.Fatalf("sparselu %s: %v", v, err)
			}
			if st := res.Runtime.DepStats(); st.Releases < st.Fragments {
				t.Fatalf("sparselu %s: %d fragments, %d releases (leak)", v, st.Fragments, st.Releases)
			}
		}
	})
	t.Run("sortsum", func(t *testing.T) {
		for _, v := range SortVariants {
			res, err := RunSortSum(mode, v, SortParams{N: 1 << 13, TS: 1 << 8, Seed: 7})
			if err != nil {
				t.Fatalf("sortsum %s: %v", v, err)
			}
			if st := res.Runtime.DepStats(); st.Releases < st.Fragments {
				t.Fatalf("sortsum %s: %d fragments, %d releases (leak)", v, st.Fragments, st.Releases)
			}
		}
	})
}
