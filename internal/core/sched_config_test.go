package core

import (
	"sync/atomic"
	"testing"
)

func TestStealingConfigNestedWeak(t *testing.T) {
	rt := New(Config{Workers: 8, Debug: true})
	d := rt.NewData("x", 800, 8)
	var sum atomic.Int64
	err := rt.RunChecked(func(tc *TaskContext) {
		tc.Submit(TaskSpec{
			Label:    "outer",
			WeakWait: true,
			Deps:     []Dep{{Data: d, Type: InOut, Weak: true, Ivs: []Interval{{Lo: 0, Hi: 800}}}},
			Body: func(tc *TaskContext) {
				for i := int64(0); i < 8; i++ {
					i := i
					tc.Submit(TaskSpec{
						Label: "leaf",
						Deps:  []Dep{{Data: d, Type: InOut, Ivs: []Interval{{Lo: i * 100, Hi: (i + 1) * 100}}}},
						Body:  func(*TaskContext) { sum.Add(1) },
					})
				}
			},
		})
		tc.Submit(TaskSpec{
			Label: "after",
			Deps:  []Dep{{Data: d, Type: In, Ivs: []Interval{{Lo: 0, Hi: 800}}}},
			Body: func(*TaskContext) {
				if sum.Load() != 8 {
					panic("reader ran before all leaves finished")
				}
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}
