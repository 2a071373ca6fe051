package core

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/deps"
	"repro/internal/mempool"
)

// TestNewDataDeclaresExtent pins when the runtime lets the dependency engine
// stripe a data object: real mode, more than one worker, the sharded engine.
// The engine is a black box here; what shows is the fragment count. Two
// programs, each a first access followed by later ones (the global engine,
// which has nothing to stripe, runs through newWithEngine):
//
//   - flat: a strong quarter-object access fixes four stripes, so a later
//     whole-object access is cut into four fragments;
//   - weakwait: a weakwait task's whole-object access delegates, so the
//     object gets the per-worker cap (4 stripes per worker) and the task's
//     whole-object access, its quarter child and a whole-object sibling are
//     cut at every stripe boundary.
//
// Unstriped, every access is one fragment.
func TestNewDataDeclaresExtent(t *testing.T) {
	const elems = 1024
	for _, c := range []struct {
		cfg            Config
		engine         deps.EngineKind
		flat, weakwait int64
	}{
		{Config{Workers: 2}, deps.EngineSharded, 1 + 4, 8 + 8/4 + 8},
		{Config{Workers: 4}, deps.EngineSharded, 1 + 4, 16 + 16/4 + 16},
		{Config{Workers: 1}, deps.EngineSharded, 1 + 1, 1 + 1 + 1},
		{Config{Workers: 2}, deps.EngineGlobal, 1 + 1, 1 + 1 + 1},
		{Config{Workers: 2, Virtual: true}, deps.EngineSharded, 1 + 1, 1 + 1 + 1},
	} {
		name := fmt.Sprintf("w=%d engine=%v virtual=%v", c.cfg.Workers, c.engine, c.cfg.Virtual)
		c.cfg.Debug = true
		for _, p := range []struct {
			name      string
			weakwait  bool
			fragments int64
		}{
			{"flat", false, c.flat},
			{"weakwait", true, c.weakwait},
		} {
			r := newWithEngine(c.cfg, c.engine, mempool.KindPooled)
			d := r.NewData("x", elems, 8)
			sum := make([]int64, elems)
			add := func(label string, lo, hi, v int64) TaskSpec {
				return TaskSpec{Label: label,
					Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(lo, hi)}}},
					Body: func(*TaskContext) {
						for i := lo; i < hi; i++ {
							sum[i] += v
						}
					}}
			}
			err := r.RunChecked(func(tc *TaskContext) {
				if !p.weakwait {
					tc.Submit(add("quarter", 0, elems/4, 1))
					tc.Submit(add("whole", 0, elems, 2))
					return
				}
				tc.Submit(TaskSpec{Label: "parent", WeakWait: true,
					Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(0, elems)}}},
					Body: func(tc *TaskContext) {
						tc.Submit(add("quarter", 0, elems/4, 1))
						tc.Submit(add("whole", 0, elems, 2))
					}})
			})
			if err != nil {
				t.Fatalf("%s %s: %v", name, p.name, err)
			}
			if sum[0] != 3 || sum[elems-1] != 2 {
				t.Errorf("%s %s: sum[0] = %d, sum[last] = %d, want 3 and 2", name, p.name, sum[0], sum[elems-1])
			}
			if got := r.DepStats().Fragments; got != p.fragments {
				t.Errorf("%s %s: %d fragments, want %d", name, p.name, got, p.fragments)
			}
		}
	}
}

// TestPerWorkerStructsPadded pins the per-worker arrays' elements to whole
// cache lines, so two workers' scratch or counter stripes never share one.
func TestPerWorkerStructsPadded(t *testing.T) {
	if s := unsafe.Sizeof(workerScratch{}); s%64 != 0 {
		t.Errorf("workerScratch size %d is not a multiple of 64; fix the pad", s)
	}
	if s := unsafe.Sizeof(taskCounters{}); s%64 != 0 {
		t.Errorf("taskCounters size %d is not a multiple of 64; fix the pad", s)
	}
}
