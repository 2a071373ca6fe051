package core

import (
	"fmt"
	"testing"

	"repro/internal/deps"
)

// TestNewDataDeclaresExtent pins when the runtime lets the dependency engine
// stripe a data object: real mode, more than one worker, the sharded engine.
// The engine is a black box here; what shows is the fragment count — a
// whole-object access registered after a quarter-object one is cut into four
// fragments when the object is striped and stays one when it is not.
func TestNewDataDeclaresExtent(t *testing.T) {
	const elems = 1024
	for _, c := range []struct {
		cfg       Config
		fragments int64
	}{
		{Config{Workers: 2}, 1 + 4},
		{Config{Workers: 4}, 1 + 4},
		{Config{Workers: 1}, 1 + 1},
		{Config{Workers: 2, DepEngine: deps.EngineGlobal}, 1 + 1},
		{Config{Workers: 2, Virtual: true}, 1 + 1},
	} {
		name := fmt.Sprintf("w=%d engine=%v virtual=%v", c.cfg.Workers, c.cfg.DepEngine, c.cfg.Virtual)
		c.cfg.Debug = true
		r := New(c.cfg)
		d := r.NewData("x", elems, 8)
		sum := make([]int64, elems)
		err := r.RunChecked(func(tc *TaskContext) {
			tc.Submit(TaskSpec{Label: "quarter",
				Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(0, elems/4)}}},
				Body: func(*TaskContext) {
					for i := 0; i < elems/4; i++ {
						sum[i]++
					}
				}})
			tc.Submit(TaskSpec{Label: "whole",
				Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(0, elems)}}},
				Body: func(*TaskContext) {
					for i := range sum {
						sum[i] += 2
					}
				}})
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sum[0] != 3 || sum[elems-1] != 2 {
			t.Errorf("%s: sum[0] = %d, sum[last] = %d, want 3 and 2", name, sum[0], sum[elems-1])
		}
		if got := r.DepStats().Fragments; got != c.fragments {
			t.Errorf("%s: %d fragments, want %d", name, got, c.fragments)
		}
	}
}
