package workloads

import "testing"

// Worksharing workload variants: each must validate against its
// sequential reference (RunAxpy/RunGS do that internally when Compute is
// set) and collapse the task count to one task per region. The per-chunk-
// task baseline of the axpy region is AxpyFlatDepend at the same TaskSize:
// the same leaves, one task each.

func TestAxpyWorksharingAllStrategies(t *testing.T) {
	p := axpyParams()
	chunksPerCall := (p.N + p.TaskSize - 1) / p.TaskSize
	for _, c := range []struct {
		variant AxpyVariant
		tasks   int64
	}{
		{AxpyWorksharing, int64(p.Calls)}, // one task per call
		{AxpyFlatDepend, int64(p.Calls) * chunksPerCall},
	} {
		for _, workers := range []int{1, 4} {
			res, err := RunAxpy(Mode{Workers: workers, Debug: true}, c.variant, p)
			if err != nil {
				t.Fatalf("%s w=%d: %v", c.variant, workers, err)
			}
			if res.Tasks != c.tasks {
				t.Fatalf("%s w=%d: %d tasks, want %d", c.variant, workers, res.Tasks, c.tasks)
			}
			if res.Flops != int64(p.Calls)*2*p.N {
				t.Fatalf("%s w=%d: %d flops accounted, want %d", c.variant, workers, res.Flops, int64(p.Calls)*2*p.N)
			}
		}
	}
}

func TestAxpyWorksharingVirtualMode(t *testing.T) {
	res, err := RunAxpy(Mode{Workers: 8, Virtual: true}, AxpyWorksharing, axpyParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.VirtualTime == 0 {
		t.Fatal("virtual time not measured")
	}
}

func TestGSWsWavefrontValidates(t *testing.T) {
	p := gsParams()
	for _, workers := range []int{1, 4} {
		res, err := RunGS(Mode{Workers: workers, Debug: true}, GSWsWavefront, p)
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		// One task per anti-diagonal per sweep: b blocks per side gives
		// 2b-1 diagonals.
		b := p.N / p.TS
		want := int64(p.Iters) * (2*b - 1)
		if res.Tasks != want {
			t.Fatalf("w=%d: %d tasks, want %d (one per diagonal per sweep)", workers, res.Tasks, want)
		}
	}
	if _, err := RunGS(Mode{Workers: 8, Virtual: true}, GSWsWavefront, p); err != nil {
		t.Fatal(err)
	}
}
