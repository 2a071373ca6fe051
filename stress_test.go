package nanos_test

// Randomized real-concurrency stress tests through the public API: random
// nested task programs with weak/strong dependencies execute under actual
// goroutine parallelism, and every task verifies at run time that the
// values it reads are exactly what the sequential (pre-order) execution
// would produce. Run with -race for full effect.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	nanos "repro"
)

const stressUniverse = 64

// stressTask describes one task of a random program.
type stressTask struct {
	label    string
	weakWait bool
	weak     bool // cover access weak?
	// wrapper marks a clause-free task whose one child is the real task
	// (submitWrapper). Runners that do not know wrappers treat one as an
	// ordinary task with a weak cover, which is why it carries its child's.
	wrapper  bool
	cover    nanos.Interval
	reads    []nanos.Interval
	writes   []nanos.Interval
	children []*stressTask

	seq int
}

// buildStressProgram generates top-level tasks with nested children; leaf
// accesses stay within their parent's cover. At every depth a task may sit
// under a chain of clause-free wrappers, but only where the pre-order
// oracle survives the brackets of submitWrapper: at the top level, or
// under a strong cover (a weak parent starts before its predecessors
// finish, and a wrapper's children do not wait for them).
func buildStressProgram(rng *rand.Rand, depth int) []*stressTask {
	id := 0
	wrap := func(c *stressTask, ok bool) *stressTask {
		for ok && rng.Intn(4) == 0 {
			id++
			c = &stressTask{label: fmt.Sprintf("w%d", id), wrapper: true,
				weakWait: rng.Intn(2) == 0, cover: c.cover, children: []*stressTask{c}}
		}
		return c
	}
	var gen func(cover nanos.Interval, depth int) *stressTask
	gen = func(cover nanos.Interval, depth int) *stressTask {
		id++
		t := &stressTask{
			label:    fmt.Sprintf("t%d", id),
			weakWait: rng.Intn(10) < 7,
			weak:     rng.Intn(10) < 7,
			cover:    cover,
		}
		kids := 1 + rng.Intn(3)
		for k := 0; k < kids; k++ {
			if cover.Len() < 2 {
				break
			}
			lo := cover.Lo + rng.Int63n(cover.Len()-1)
			hi := lo + 1 + rng.Int63n(cover.Hi-lo)
			sub := nanos.Iv(lo, hi)
			if depth > 1 && sub.Len() >= 4 && rng.Intn(3) == 0 {
				t.children = append(t.children, wrap(gen(sub, depth-1), !t.weak))
			} else {
				id++
				leaf := &stressTask{label: fmt.Sprintf("l%d", id), cover: sub}
				if rng.Intn(2) == 0 {
					leaf.writes = []nanos.Interval{sub}
				} else {
					leaf.reads = []nanos.Interval{sub}
				}
				t.children = append(t.children, wrap(leaf, !t.weak))
			}
		}
		return t
	}
	n := 3 + rng.Intn(5)
	out := make([]*stressTask, 0, n)
	for i := 0; i < n; i++ {
		lo := rng.Int63n(stressUniverse - 10)
		ln := int64(6 + rng.Intn(18))
		hi := lo + ln
		if hi > stressUniverse {
			hi = stressUniverse
		}
		out = append(out, wrap(gen(nanos.Iv(lo, hi), depth), true))
	}
	return out
}

// submitWrapper submits st, a clause-free wrapper, between two Taskwaits.
// OpenMP orders nothing across a task without a depend clause: its
// children live in a domain of their own. The brackets make the wrapper's
// whole subtree run after every earlier sibling and before every later
// one, so the pre-order oracle still holds.
func submitWrapper(tc *nanos.TaskContext, st *stressTask, submit func(*nanos.TaskContext, *stressTask)) {
	tc.Taskwait()
	tc.Submit(nanos.TaskSpec{Label: st.label, WeakWait: st.weakWait, Body: func(tc *nanos.TaskContext) {
		for _, c := range st.children {
			submit(tc, c)
		}
	}})
	tc.Taskwait()
}

// reference assigns pre-order sequence numbers and computes expected reads.
func stressReference(tasks []*stressTask) (expect map[string]map[int64]int64, final []int64) {
	ref := make([]int64, stressUniverse)
	expect = make(map[string]map[int64]int64)
	seq := 0
	var walk func(ts []*stressTask)
	walk = func(ts []*stressTask) {
		for _, t := range ts {
			seq++
			t.seq = seq
			exp := make(map[int64]int64)
			for _, iv := range t.reads {
				for p := iv.Lo; p < iv.Hi; p++ {
					exp[p] = ref[p]
				}
			}
			for _, iv := range t.writes {
				for p := iv.Lo; p < iv.Hi; p++ {
					ref[p] = int64(t.seq)
				}
			}
			expect[t.label] = exp
			walk(t.children)
		}
	}
	walk(tasks)
	return expect, ref
}

// runStress executes the program on a real runtime and checks every read.
func runStress(t *testing.T, tasks []*stressTask, workers int) {
	expect, final := stressReference(tasks)
	rt := nanos.New(nanos.Config{Workers: workers})
	d := rt.NewData("x", stressUniverse, 8)
	data := make([]int64, stressUniverse)
	var mu sync.Mutex
	var violations []string

	var submit func(tc *nanos.TaskContext, st *stressTask)
	submit = func(tc *nanos.TaskContext, st *stressTask) {
		if st.wrapper {
			submitWrapper(tc, st, submit)
			return
		}
		var deps []nanos.Dep
		if len(st.children) > 0 {
			if st.weak {
				deps = append(deps, nanos.DWeakInOut(d, st.cover))
			} else {
				deps = append(deps, nanos.DInOut(d, st.cover))
			}
		}
		for _, iv := range st.reads {
			deps = append(deps, nanos.DIn(d, iv))
		}
		for _, iv := range st.writes {
			deps = append(deps, nanos.DInOut(d, iv))
		}

		tc.Submit(nanos.TaskSpec{
			Label:    st.label,
			WeakWait: st.weakWait,
			Deps:     deps,
			Body: func(tc *nanos.TaskContext) {
				exp := expect[st.label]
				for _, iv := range st.reads {
					for p := iv.Lo; p < iv.Hi; p++ {
						// The dependency system must make this read safe
						// and sequentially consistent.
						if got := data[p]; got != exp[p] {
							mu.Lock()
							violations = append(violations,
								fmt.Sprintf("%s read [%d]=%d want %d", st.label, p, got, exp[p]))
							mu.Unlock()
						}
					}
				}
				for _, iv := range st.writes {
					for p := iv.Lo; p < iv.Hi; p++ {
						data[p] = int64(st.seq)
					}
				}
				for _, c := range st.children {
					submit(tc, c)
				}
			},
		})
	}

	rt.Run(func(tc *nanos.TaskContext) {
		for _, st := range tasks {
			submit(tc, st)
		}
	})

	if len(violations) > 0 {
		t.Fatalf("serialization violations: %v", violations[:min(4, len(violations))])
	}
	for p := range data {
		if data[p] != final[p] {
			t.Fatalf("final state [%d] = %d, want %d", p, data[p], final[p])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestStressRandomNestedPrograms: random nested weak/strong programs under
// real concurrency must be serializable to pre-order.
func TestStressRandomNestedPrograms(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := buildStressProgram(rng, 2)
		runStress(t, prog, 1+rng.Intn(8))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(77))}); err != nil {
		t.Fatal(err)
	}
}

// TestStressDeepNesting: three levels of nesting with mixed modes.
func TestStressDeepNesting(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		prog := buildStressProgram(rng, 3)
		runStress(t, prog, 4)
		if t.Failed() {
			t.Fatalf("seed %d failed", seed)
		}
	}
}

// TestStressManyWorkers: oversubscription (more workers than cores) must
// not break ordering.
func TestStressManyWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	prog := buildStressProgram(rng, 2)
	runStress(t, prog, 32)
}

// TestStressSingleWorker: degenerate single-token execution.
func TestStressSingleWorker(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	prog := buildStressProgram(rng, 2)
	runStress(t, prog, 1)
}

// TestStressWithThrottle: the lookahead window preserves correctness.
func TestStressWithThrottle(t *testing.T) {
	expectFew := func(workers, throttle int) {
		rng := rand.New(rand.NewSource(99))
		prog := buildStressProgram(rng, 2)
		expect, final := stressReference(prog)
		_ = expect
		_ = final
		rt := nanos.New(nanos.Config{Workers: workers, ThrottleOpenTasks: throttle})
		d := rt.NewData("x", stressUniverse, 8)
		data := make([]int64, stressUniverse)
		var submit func(tc *nanos.TaskContext, st *stressTask)
		submit = func(tc *nanos.TaskContext, st *stressTask) {
			var deps []nanos.Dep
			if len(st.children) > 0 {
				deps = append(deps, nanos.DWeakInOut(d, st.cover))
			}
			for _, iv := range st.reads {
				deps = append(deps, nanos.DIn(d, iv))
			}
			for _, iv := range st.writes {
				deps = append(deps, nanos.DInOut(d, iv))
			}
			tc.Submit(nanos.TaskSpec{Label: st.label, WeakWait: true, Deps: deps,
				Body: func(tc *nanos.TaskContext) {
					for _, iv := range st.writes {
						for p := iv.Lo; p < iv.Hi; p++ {
							data[p] = int64(st.seq)
						}
					}
					for _, c := range st.children {
						submit(tc, c)
					}
				}})
		}
		rt.Run(func(tc *nanos.TaskContext) {
			for _, st := range prog {
				submit(tc, st)
			}
		})
		for p := range data {
			if data[p] != final[p] {
				t.Fatalf("throttle=%d: final state [%d] = %d, want %d", throttle, p, data[p], final[p])
			}
		}
	}
	expectFew(4, 4)
	expectFew(2, 1)
}
