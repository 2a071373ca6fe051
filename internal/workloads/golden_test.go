package workloads

import (
	"fmt"
	"testing"

	nanos "repro"
)

// Golden virtual-mode makespans. Virtual execution is deterministic, so
// these pin the combined semantics of the dependency engine (linking,
// weakwait hand-over, weak propagation) and the virtual scheduler (FIFO
// dispatch, hand-off, arrival times) against accidental change. A diff
// here is not necessarily a bug — an intentional semantic or scheduling
// change legitimately moves the numbers — but it must be reviewed and the
// constants re-recorded, and the *orderings* asserted at the bottom must
// always survive.
//
// The makespans are asserted under BOTH dependency engines: the global row
// pins the original goldens (recorded when virtual mode defaulted to the
// global engine), and the sharded row is the re-recording for the flip of
// the virtual-mode default to the sharded engine. The re-recording found
// the sharded engine's ready ordering reproduces the global goldens
// exactly for every workload here, which is why a single constants table
// serves both rows — if a future change splits them, give each engine its
// own table.
func TestGoldenVirtualMakespans(t *testing.T) {
	engines := []nanos.EngineKind{nanos.EngineGlobal, nanos.EngineSharded}

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

	for _, eng := range engines {
		t.Run(eng.String(), func(t *testing.T) {
			axpyGot := map[AxpyVariant]int64{}
			for _, v := range AxpyVariants {
				res, err := RunAxpy(Mode{Workers: 8, Virtual: true, SubmitCost: 16, Engine: eng}, v,
					AxpyParams{N: 1 << 14, Calls: 4, TaskSize: 1 << 11, Alpha: 1, Compute: false})
				if err != nil {
					t.Fatal(err)
				}
				axpyGot[v] = res.VirtualTime
				if res.VirtualTime != axpy[v] {
					t.Errorf("axpy %s makespan = %d, golden %d", v, res.VirtualTime, axpy[v])
				}
			}

			gsGot := map[GSVariant]int64{}
			for _, v := range GSVariants {
				res, err := RunGS(Mode{Workers: 8, Virtual: true, Engine: eng}, v,
					GSParams{N: 128, TS: 32, Iters: 4, Compute: false})
				if err != nil {
					t.Fatal(err)
				}
				gsGot[v] = res.VirtualTime
				if res.VirtualTime != gs[v] {
					t.Errorf("gs %s makespan = %d, golden %d", v, res.VirtualTime, gs[v])
				}
			}

			for _, v := range CholVariants {
				res, err := RunCholesky(Mode{Workers: 8, Virtual: true, Engine: eng}, v,
					CholParams{N: 256, TS: 64, Seed: 1, Compute: false})
				if err != nil {
					t.Fatal(err)
				}
				if res.VirtualTime != chol[v] {
					t.Errorf("cholesky %s makespan = %d, golden %d", v, res.VirtualTime, chol[v])
				}
			}

			// The orderings that must hold regardless of the exact
			// constants: the weak variants never lose to nest-depend, and
			// nest-weak tracks flat-depend within a small factor.
			if axpyGot[AxpyNestWeak] > axpyGot[AxpyNestDepend] {
				t.Error(orderErr("axpy", "nest-weak", axpyGot[AxpyNestWeak], "nest-depend", axpyGot[AxpyNestDepend]))
			}
			if gsGot[GSNestWeak] > gsGot[GSNestDepend] {
				t.Error(orderErr("gs", "nest-weak", gsGot[GSNestWeak], "nest-depend", gsGot[GSNestDepend]))
			}
			if f := float64(gsGot[GSNestWeak]) / float64(gsGot[GSFlatDepend]); f > 1.5 {
				t.Errorf("gs nest-weak %.2fx slower than flat-depend", f)
			}
		})
	}
}

func orderErr(bench, a string, av int64, b string, bv int64) string {
	return fmt.Sprintf("%s: %s (%d) slower than %s (%d); the paper's ordering is violated",
		bench, a, av, b, bv)
}

// TestGoldenEngineSchedulerMatrix runs the three compute-validating
// workloads (cholesky, sparselu, sortsum) under both dependency engines ×
// every ready-queue policy — FIFO on the work-stealing pool (at 8 workers
// even in short mode, so steals and the creator lane are exercised), LIFO
// and Priority on the central queue — in real mode with computation
// enabled, so each run's numerical result is checked against the
// sequential oracle.
// This is the workload-level completion of the differential tests in
// internal/deps: whatever the engine implementation and dispatch order,
// the dependency semantics must produce oracle-identical numerics.
func TestGoldenEngineSchedulerMatrix(t *testing.T) {
	engines := []nanos.EngineKind{nanos.EngineGlobal, nanos.EngineSharded}
	workers := 8
	if testing.Short() {
		workers = 4
	}
	policies := []struct {
		name    string
		policy  nanos.Policy
		workers int
	}{
		{"fifo-stealing", nanos.FIFO, 8},
		{"lifo-central", nanos.LIFO, workers},
		{"priority-central", nanos.Priority, workers},
	}
	for _, eng := range engines {
		for _, pol := range policies {
			mode := Mode{Workers: pol.workers, Engine: eng, Policy: pol.policy, Debug: true}
			t.Run(fmt.Sprintf("%s/%s", eng, pol.name), func(t *testing.T) {
				runGoldenOracle(t, mode)
			})
		}
	}
}

// TestGoldenSingleWorkerPools repeats the oracle check with one worker, under
// both engines × every pool: the stealing pool without affinity routing or a
// thief, and the central queue under each global order, with every taskwait
// yielding the only token.
func TestGoldenSingleWorkerPools(t *testing.T) {
	policies := []struct {
		name   string
		policy nanos.Policy
	}{
		{"fifo-stealing", nanos.FIFO},
		{"lifo-central", nanos.LIFO},
		{"priority-central", nanos.Priority},
	}
	for _, eng := range []nanos.EngineKind{nanos.EngineGlobal, nanos.EngineSharded} {
		for _, pol := range policies {
			mode := Mode{Workers: 1, Engine: eng, Policy: pol.policy, Debug: true}
			t.Run(fmt.Sprintf("%s/%s", eng, pol.name), func(t *testing.T) {
				runGoldenOracle(t, mode)
			})
		}
	}
}

// runGoldenOracle runs every cholesky, sparselu and sortsum variant under
// mode with computation enabled; each Run* checks its result against the
// sequential oracle, and the dependency statistics must show no leaked
// fragment.
func runGoldenOracle(t *testing.T, mode Mode) {
	t.Helper()
	for _, v := range CholVariants {
		res, err := RunCholesky(mode, v, CholParams{N: 128, TS: 32, Seed: 7, Compute: true})
		if err != nil {
			t.Fatalf("cholesky %s: %v", v, err)
		}
		if st := res.Runtime.DepStats(); st.Releases < st.Fragments {
			t.Fatalf("cholesky %s: %d fragments, %d releases (leak)", v, st.Fragments, st.Releases)
		}
	}
	for _, v := range SparseLUVariants {
		res, _, err := RunSparseLU(mode, v, SparseLUParams{B: 6, TS: 16, Density: 0.5, Seed: 7, Compute: true})
		if err != nil {
			t.Fatalf("sparselu %s: %v", v, err)
		}
		if st := res.Runtime.DepStats(); st.Releases < st.Fragments {
			t.Fatalf("sparselu %s: %d fragments, %d releases (leak)", v, st.Fragments, st.Releases)
		}
	}
	for _, v := range SortVariants {
		res, err := RunSortSum(mode, v, SortParams{N: 1 << 13, TS: 1 << 8, Seed: 7})
		if err != nil {
			t.Fatalf("sortsum %s: %v", v, err)
		}
		if st := res.Runtime.DepStats(); st.Releases < st.Fragments {
			t.Fatalf("sortsum %s: %d fragments, %d releases (leak)", v, st.Fragments, st.Releases)
		}
	}
}
