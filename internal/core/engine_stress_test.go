package core

// Engine × scheduler stress matrix: randomized multi-data nested programs
// execute under real goroutine parallelism on every combination of
// dependency engine (the sharded one New builds, and the single-mutex
// reference swapped in by newWithEngine) and Taskwait mode (helping, and
// the park-only oracle), with and without successor hand-off. Tasks mix
// weakwait completion, early release directives, and depend clauses
// spanning several data objects — the multi-shard paths of the sharded
// engine — and clause-free wrapper tasks, which open dependency domains of
// their own (the lazy domain nodes). Every read is checked against the sequential pre-order oracle
// and the final state must match it exactly; run with -race to also prove
// the engines publish task memory correctly. Short mode trims seeds and
// worker counts so `go test ./...` stays fast.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/deps"
	"repro/internal/mempool"
	"repro/internal/regions"
)

const xUniverse = 48
const xDatas = 3

// xTask is one task of a random multi-data program.
type xTask struct {
	label    string
	weakWait bool
	weak     bool               // covers weak?
	release  bool               // issue a release directive after spawning children
	wrapper  bool               // clause-free: its one child is the real task (runEngineStress)
	covers   map[int]Interval   // data index -> nesting cover
	reads    map[int][]Interval // data index -> read intervals
	writes   map[int][]Interval
	children []*xTask

	seq int64
}

// buildMultiProgram generates top-level tasks whose covers span one or two
// data objects; children access sub-intervals of one of the covers. At
// every depth a task may sit under a chain of clause-free wrappers, where
// the pre-order oracle survives the Taskwait brackets runEngineStress puts
// around them: at the top level, or under a strong cover (a weak parent
// starts before its predecessors finish, and a wrapper's children, in a
// domain of their own, do not wait for them).
func buildMultiProgram(rng *rand.Rand, depth int) []*xTask {
	id := 0
	wrap := func(c *xTask, ok bool) *xTask {
		for ok && rng.Intn(4) == 0 {
			id++
			c = &xTask{label: fmt.Sprintf("w%d", id), wrapper: true,
				weakWait: rng.Intn(2) == 0, children: []*xTask{c}}
		}
		return c
	}
	var gen func(covers map[int]Interval, depth int) *xTask
	gen = func(covers map[int]Interval, depth int) *xTask {
		id++
		t := &xTask{
			label:    fmt.Sprintf("t%d", id),
			weakWait: rng.Intn(10) < 7,
			weak:     rng.Intn(10) < 7,
			release:  rng.Intn(5) == 0,
			covers:   covers,
		}
		datas := make([]int, 0, len(covers))
		for d := range covers {
			datas = append(datas, d)
		}
		kids := 1 + rng.Intn(3)
		for k := 0; k < kids; k++ {
			d := datas[rng.Intn(len(datas))]
			cover := covers[d]
			if cover.Len() < 2 {
				continue
			}
			lo := cover.Lo + rng.Int63n(cover.Len()-1)
			hi := lo + 1 + rng.Int63n(cover.Hi-lo)
			sub := regions.Iv(lo, hi)
			if depth > 1 && sub.Len() >= 4 && rng.Intn(3) == 0 {
				t.children = append(t.children, wrap(gen(map[int]Interval{d: sub}, depth-1), !t.weak))
			} else {
				id++
				leaf := &xTask{
					label:  fmt.Sprintf("l%d", id),
					reads:  map[int][]Interval{},
					writes: map[int][]Interval{},
				}
				if rng.Intn(2) == 0 {
					leaf.writes[d] = []Interval{sub}
				} else {
					leaf.reads[d] = []Interval{sub}
				}
				t.children = append(t.children, wrap(leaf, !t.weak))
			}
		}
		return t
	}
	n := 3 + rng.Intn(5)
	out := make([]*xTask, 0, n)
	for i := 0; i < n; i++ {
		covers := map[int]Interval{}
		nd := 1 + rng.Intn(2)
		for _, d := range rng.Perm(xDatas)[:nd] {
			lo := rng.Int63n(xUniverse - 10)
			hi := lo + int64(6+rng.Intn(18))
			if hi > xUniverse {
				hi = xUniverse
			}
			covers[d] = regions.Iv(lo, hi)
		}
		out = append(out, wrap(gen(covers, depth), true))
	}
	return out
}

// multiReference assigns pre-order sequence numbers and computes expected
// reads and the final state, per data object.
func multiReference(tasks []*xTask) (expect map[string]map[[2]int64]int64, final [xDatas][]int64) {
	for d := range final {
		final[d] = make([]int64, xUniverse)
	}
	expect = make(map[string]map[[2]int64]int64)
	seq := int64(0)
	var walk func(ts []*xTask)
	walk = func(ts []*xTask) {
		for _, t := range ts {
			seq++
			t.seq = seq
			exp := make(map[[2]int64]int64)
			for d, ivs := range t.reads {
				for _, iv := range ivs {
					for p := iv.Lo; p < iv.Hi; p++ {
						exp[[2]int64{int64(d), p}] = final[d][p]
					}
				}
			}
			for d, ivs := range t.writes {
				for _, iv := range ivs {
					for p := iv.Lo; p < iv.Hi; p++ {
						final[d][p] = seq
					}
				}
			}
			expect[t.label] = exp
			walk(t.children)
		}
	}
	walk(tasks)
	return expect, final
}

// runEngineStress executes the program under the given config on the given
// dependency engine (pooled memory, as New builds), park-only if asked, and
// checks serializability against the pre-order oracle.
func runEngineStress(t *testing.T, tasks []*xTask, cfg Config, kind deps.EngineKind, parkOnly bool) {
	expect, final := multiReference(tasks)
	cfg.Debug = true // exact end-of-run leak check: Run panics on live fragments
	rt := newWithEngine(cfg, kind, mempool.KindPooled)
	rt.parkOnly = parkOnly
	var ids [xDatas]DataID
	var data [xDatas][]int64
	for d := 0; d < xDatas; d++ {
		ids[d] = rt.NewData(fmt.Sprintf("x%d", d), xUniverse, 8)
		data[d] = make([]int64, xUniverse)
	}
	var mu sync.Mutex
	var violations []string

	var submit func(tc *TaskContext, st *xTask)
	submit = func(tc *TaskContext, st *xTask) {
		if st.wrapper {
			// OpenMP orders nothing across a task without a depend clause;
			// the brackets run its whole subtree after every earlier
			// sibling and before every later one, as pre-order does.
			tc.Taskwait()
			tc.Submit(TaskSpec{Label: st.label, WeakWait: st.weakWait, Body: func(tc *TaskContext) {
				for _, c := range st.children {
					submit(tc, c)
				}
			}})
			tc.Taskwait()
			return
		}
		var ds []Dep
		if len(st.children) > 0 {
			for d, cover := range st.covers {
				if st.weak {
					ds = append(ds, Dep{Data: ids[d], Type: InOut, Weak: true, Ivs: []Interval{cover}})
				} else {
					ds = append(ds, Dep{Data: ids[d], Type: InOut, Ivs: []Interval{cover}})
				}
			}
		}
		for d, ivs := range st.reads {
			ds = append(ds, Dep{Data: ids[d], Type: In, Ivs: ivs})
		}
		for d, ivs := range st.writes {
			ds = append(ds, Dep{Data: ids[d], Type: InOut, Ivs: ivs})
		}
		tc.Submit(TaskSpec{
			Label:    st.label,
			WeakWait: st.weakWait,
			Deps:     ds,
			Body: func(tc *TaskContext) {
				exp := expect[st.label]
				for d, ivs := range st.reads {
					for _, iv := range ivs {
						for p := iv.Lo; p < iv.Hi; p++ {
							if got := data[d][p]; got != exp[[2]int64{int64(d), p}] {
								mu.Lock()
								violations = append(violations, fmt.Sprintf("%s read d%d[%d]=%d want %d",
									st.label, d, p, got, exp[[2]int64{int64(d), p}]))
								mu.Unlock()
							}
						}
					}
				}
				for d, ivs := range st.writes {
					for _, iv := range ivs {
						for p := iv.Lo; p < iv.Hi; p++ {
							data[d][p] = st.seq
						}
					}
				}
				for _, c := range st.children {
					submit(tc, c)
				}
				if st.release && len(st.children) > 0 {
					// The release directive: this task asserts it will not
					// touch its covers again; live children hand over.
					var rel []Dep
					for d, cover := range st.covers {
						rel = append(rel, Dep{Data: ids[d], Type: InOut, Ivs: []Interval{cover}})
					}
					tc.Release(rel...)
				}
			},
		})
	}

	rt.Run(func(tc *TaskContext) {
		for _, st := range tasks {
			submit(tc, st)
		}
	})

	if len(violations) > 0 {
		t.Fatalf("serialization violations: %v", violations[:min(4, len(violations))])
	}
	for d := 0; d < xDatas; d++ {
		for p := range data[d] {
			if data[d][p] != final[d][p] {
				t.Fatalf("final state d%d[%d] = %d, want %d", d, p, data[d][p], final[d][p])
			}
		}
	}
	if lf := rt.DepStats().Releases; lf < rt.DepStats().Fragments {
		t.Fatalf("%d fragments but only %d releases (leaked pieces)", rt.DepStats().Fragments, lf)
	}
}

// TestStressEngineSchedulerMatrix runs the multi-data stress program over
// every engine × Taskwait-mode combination on the stealing pool: helping
// waits and the park-only oracle (the root's end-of-program wait then
// parks), each with and without successor hand-off (without it, every
// readied successor goes through the pool).
func TestStressEngineSchedulerMatrix(t *testing.T) {
	engines := []deps.EngineKind{deps.EngineGlobal, deps.EngineSharded}
	queues := []struct {
		name      string
		parkOnly  bool
		noHandoff bool
	}{
		{"stealing", false, false},
		{"stealing-nohandoff", false, true},
		{"park-only", true, false},
		{"park-only-nohandoff", true, true},
	}
	seeds := 10
	if testing.Short() {
		seeds = 2
	}
	for _, eng := range engines {
		for _, q := range queues {
			t.Run(fmt.Sprintf("%s/%s", eng, q.name), func(t *testing.T) {
				for seed := int64(0); seed < int64(seeds); seed++ {
					rng := rand.New(rand.NewSource(5000 + seed))
					prog := buildMultiProgram(rng, 3)
					runEngineStress(t, prog, Config{
						Workers:   1 + rng.Intn(8),
						NoHandoff: q.noHandoff,
					}, eng, q.parkOnly)
					if t.Failed() {
						t.Fatalf("seed %d failed", seed)
					}
				}
			})
		}
	}
}

// TestStressShardedManyWorkers oversubscribes the sharded engine (more
// workers than cores) on a wider program, the configuration most likely to
// interleave cross-shard grants with registration.
func TestStressShardedManyWorkers(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(9000 + seed))
		prog := buildMultiProgram(rng, 2)
		runEngineStress(t, prog, Config{Workers: 24}, deps.EngineSharded, false)
		if t.Failed() {
			t.Fatalf("seed %d failed", seed)
		}
	}
}

// TestStressThrottleRelease combines the sharded engine with the open-task
// throttle and release directives: blocked submitters yield tokens while
// releases from other shards wake successors.
func TestStressThrottleRelease(t *testing.T) {
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(12000 + seed))
		prog := buildMultiProgram(rng, 2)
		runEngineStress(t, prog, Config{
			Workers:           4,
			ThrottleOpenTasks: 6,
		}, deps.EngineSharded, false)
		if t.Failed() {
			t.Fatalf("seed %d failed", seed)
		}
	}
}
