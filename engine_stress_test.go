package nanos_test

// Engine × scheduler stress matrix: randomized multi-data nested programs
// execute under real goroutine parallelism on every combination of
// dependency engine (global-lock, sharded) and ready pool (FIFO, LIFO,
// Priority, work stealing). Tasks mix weakwait completion, early release
// directives, and depend clauses spanning several data objects — the
// multi-shard paths of the sharded engine. Every read is checked against
// the sequential pre-order oracle and the final state must match it
// exactly; run with -race to also prove the engines publish task memory
// correctly. Short mode trims seeds and worker counts so `go test ./...`
// stays fast.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	nanos "repro"
)

const xUniverse = 48
const xDatas = 3

// xTask is one task of a random multi-data program.
type xTask struct {
	label    string
	weakWait bool
	weak     bool                     // covers weak?
	release  bool                     // issue a release directive after spawning children
	covers   map[int]nanos.Interval   // data index -> nesting cover
	reads    map[int][]nanos.Interval // data index -> read intervals
	writes   map[int][]nanos.Interval
	priority int64
	children []*xTask

	seq int64
}

// buildMultiProgram generates top-level tasks whose covers span one or two
// data objects; children access sub-intervals of one of the covers.
func buildMultiProgram(rng *rand.Rand, depth int) []*xTask {
	id := 0
	var gen func(covers map[int]nanos.Interval, depth int) *xTask
	gen = func(covers map[int]nanos.Interval, depth int) *xTask {
		id++
		t := &xTask{
			label:    fmt.Sprintf("t%d", id),
			weakWait: rng.Intn(10) < 7,
			weak:     rng.Intn(10) < 7,
			release:  rng.Intn(5) == 0,
			covers:   covers,
			priority: int64(rng.Intn(5)),
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
			sub := nanos.Iv(lo, hi)
			if depth > 1 && sub.Len() >= 4 && rng.Intn(3) == 0 {
				t.children = append(t.children, gen(map[int]nanos.Interval{d: sub}, depth-1))
			} else {
				id++
				leaf := &xTask{
					label:    fmt.Sprintf("l%d", id),
					priority: int64(rng.Intn(5)),
					reads:    map[int][]nanos.Interval{},
					writes:   map[int][]nanos.Interval{},
				}
				if rng.Intn(2) == 0 {
					leaf.writes[d] = []nanos.Interval{sub}
				} else {
					leaf.reads[d] = []nanos.Interval{sub}
				}
				t.children = append(t.children, leaf)
			}
		}
		return t
	}
	n := 3 + rng.Intn(5)
	out := make([]*xTask, 0, n)
	for i := 0; i < n; i++ {
		covers := map[int]nanos.Interval{}
		nd := 1 + rng.Intn(2)
		for _, d := range rng.Perm(xDatas)[:nd] {
			lo := rng.Int63n(xUniverse - 10)
			hi := lo + int64(6+rng.Intn(18))
			if hi > xUniverse {
				hi = xUniverse
			}
			covers[d] = nanos.Iv(lo, hi)
		}
		out = append(out, gen(covers, depth))
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

// runEngineStress executes the program under the given config and checks
// serializability against the pre-order oracle.
func runEngineStress(t *testing.T, tasks []*xTask, cfg nanos.Config) {
	expect, final := multiReference(tasks)
	cfg.Debug = true // exact end-of-run leak check: Run panics on live fragments
	rt := nanos.New(cfg)
	var ids [xDatas]nanos.DataID
	var data [xDatas][]int64
	for d := 0; d < xDatas; d++ {
		ids[d] = rt.NewData(fmt.Sprintf("x%d", d), xUniverse, 8)
		data[d] = make([]int64, xUniverse)
	}
	var mu sync.Mutex
	var violations []string

	var submit func(tc *nanos.TaskContext, st *xTask)
	submit = func(tc *nanos.TaskContext, st *xTask) {
		var ds []nanos.Dep
		if len(st.children) > 0 {
			for d, cover := range st.covers {
				if st.weak {
					ds = append(ds, nanos.DWeakInOut(ids[d], cover))
				} else {
					ds = append(ds, nanos.DInOut(ids[d], cover))
				}
			}
		}
		for d, ivs := range st.reads {
			ds = append(ds, nanos.DIn(ids[d], ivs...))
		}
		for d, ivs := range st.writes {
			ds = append(ds, nanos.DInOut(ids[d], ivs...))
		}
		tc.Submit(nanos.TaskSpec{
			Label:    st.label,
			WeakWait: st.weakWait,
			Priority: st.priority,
			Deps:     ds,
			Body: func(tc *nanos.TaskContext) {
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
					var rel []nanos.Dep
					for d, cover := range st.covers {
						rel = append(rel, nanos.DInOut(ids[d], cover))
					}
					tc.Release(rel...)
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
// every engine × ready-pool combination: work stealing (the FIFO policy) and
// the central queue under LIFO and Priority, each with and without successor
// hand-off (without it, every readied successor goes through the pool).
func TestStressEngineSchedulerMatrix(t *testing.T) {
	engines := []nanos.EngineKind{nanos.EngineGlobal, nanos.EngineSharded}
	queues := []struct {
		name      string
		policy    nanos.Policy
		noHandoff bool
	}{
		{"stealing", nanos.FIFO, false},
		{"stealing-nohandoff", nanos.FIFO, true},
		{"central-lifo", nanos.LIFO, false},
		{"central-lifo-nohandoff", nanos.LIFO, true},
		{"central-priority", nanos.Priority, false},
		{"central-priority-nohandoff", nanos.Priority, true},
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
					runEngineStress(t, prog, nanos.Config{
						Workers:   1 + rng.Intn(8),
						DepEngine: eng,
						Policy:    q.policy,
						NoHandoff: q.noHandoff,
					})
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
		runEngineStress(t, prog, nanos.Config{Workers: 24, DepEngine: nanos.EngineSharded})
		if t.Failed() {
			t.Fatalf("seed %d failed", seed)
		}
	}
}

// TestStressShardedThrottleRelease combines the sharded engine with the
// open-task throttle and release directives: blocked submitters yield
// tokens while releases from other shards wake successors.
func TestStressShardedThrottleRelease(t *testing.T) {
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(12000 + seed))
		prog := buildMultiProgram(rng, 2)
		runEngineStress(t, prog, nanos.Config{
			Workers:           4,
			DepEngine:         nanos.EngineSharded,
			ThrottleOpenTasks: 6,
		})
		if t.Failed() {
			t.Fatalf("seed %d failed", seed)
		}
	}
}
