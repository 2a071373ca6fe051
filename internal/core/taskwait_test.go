package core

// Tests for the Taskwait blocking strategies (Config.TaskwaitImpl): the
// parking-vs-continuation differential suite over randomized nested
// programs, exact-stats determinism at w=1, the zero-parks guarantee at
// multiple widths, the W1 parity guard, edge cases (zero children racing a
// child finish, taskwait inside a final region, double taskwait in one
// body), and the record-and-replay eligibility decision in both
// directions.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/randtest"
)

var taskwaitKinds = []TaskwaitKind{TaskwaitParking, TaskwaitContinuation}

// TestTaskwaitImplResolution pins the auto resolution (continuation in
// real mode) and the structural mode-exclusivity of the stats: the parking
// counter can only move on the parking path and vice versa.
func TestTaskwaitImplResolution(t *testing.T) {
	// One guaranteed-blocking wait at w=1: the parent holds the only
	// token, so its submitted child cannot have run when the wait starts.
	run := func(cfg Config) TaskwaitStats {
		r := New(cfg)
		r.Run(func(tc *TaskContext) {
			tc.Submit(TaskSpec{Label: "p", Body: func(tc *TaskContext) {
				tc.Submit(TaskSpec{Label: "c"})
				tc.Taskwait()
			}})
		})
		return r.TaskwaitStats()
	}
	// Auto resolves to continuation: handoffs move, parks stay zero.
	st := run(Config{Workers: 1})
	if st.Parks != 0 || st.Handoffs == 0 {
		t.Errorf("auto (real mode): stats %+v, want parks=0 and handoffs>0", st)
	}
	st = run(Config{Workers: 1, TaskwaitImpl: TaskwaitParking})
	if st.Handoffs != 0 || st.StealResumes != 0 || st.Parks == 0 {
		t.Errorf("parking: stats %+v, want handoffs=0, stealResumes=0, parks>0", st)
	}
	st = run(Config{Workers: 1, TaskwaitImpl: TaskwaitContinuation})
	if st.Parks != 0 || st.Handoffs == 0 {
		t.Errorf("continuation: stats %+v, want parks=0 and handoffs>0", st)
	}
	// The continuation pool exists only where the strategy does.
	if New(Config{Workers: 1, TaskwaitImpl: TaskwaitParking}).contPool != nil {
		t.Error("parking runtime built a continuation pool")
	}
	if New(Config{Workers: 1, Virtual: true}).contPool != nil {
		t.Error("virtual runtime built a continuation pool")
	}
	for _, k := range []TaskwaitKind{TaskwaitAuto, TaskwaitParking, TaskwaitContinuation} {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

// TestTaskwaitExactStats: at w=1 blocking is deterministic — a parent
// holding the only worker token guarantees its queued child has not run
// when the wait starts — so the blocking-wait count is exact: K parent
// waits plus the root's implicit end-of-program wait, in both strategies.
func TestTaskwaitExactStats(t *testing.T) {
	const parents = 7
	for _, kind := range taskwaitKinds {
		r := New(Config{Workers: 1, TaskwaitImpl: kind, Debug: true})
		var ran atomic.Int64
		err := r.RunChecked(func(tc *TaskContext) {
			for i := 0; i < parents; i++ {
				tc.Submit(TaskSpec{Label: "p", Body: func(tc *TaskContext) {
					tc.Submit(TaskSpec{Label: "c", Body: func(*TaskContext) { ran.Add(1) }})
					tc.Taskwait()
					if ran.Load() == 0 {
						t.Error("taskwait returned before the child ran")
					}
				}})
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		st := r.TaskwaitStats()
		blocked := st.Parks + st.Handoffs
		if blocked != parents+1 {
			t.Errorf("%v: %d blocking waits (stats %+v), want %d parents + 1 root = %d",
				kind, blocked, st, parents, parents+1)
		}
		if kind == TaskwaitParking && (st.Handoffs != 0 || st.StealResumes != 0) {
			t.Errorf("parking: stats %+v, want zero handoffs and steal-resumes", st)
		}
		if kind == TaskwaitContinuation {
			if st.Parks != 0 {
				t.Errorf("continuation: stats %+v, want zero parks", st)
			}
			if st.StealResumes != 0 {
				t.Errorf("continuation w=1: %d steal-resumes with a single worker", st.StealResumes)
			}
			if n := r.ContPoolStats().Outstanding(); n != 0 {
				t.Errorf("continuation: %d nodes outstanding after drain", n)
			}
		}
	}
}

// twTree is one node of a randomized nested-taskwait program.
type twTree struct {
	id        int
	children  []*twTree
	waitAfter []bool // taskwait after submitting child i
}

// buildTWTree generates a random tree with per-position wait decisions,
// all derived from rng up front so both strategies run the identical
// program.
func buildTWTree(rng *rand.Rand, depth int, next *int) *twTree {
	n := &twTree{id: *next}
	*next++
	if depth == 0 {
		return n
	}
	fan := rng.Intn(4) // 0..3 children
	for i := 0; i < fan; i++ {
		n.children = append(n.children, buildTWTree(rng, depth-1, next))
		n.waitAfter = append(n.waitAfter, rng.Intn(3) == 0)
	}
	return n
}

// w1BlockingWaits counts the blocking taskwaits the tree produces at w=1,
// where blocking is deterministic: a wait blocks iff at least one child
// was submitted since the body's previous wait (the submitter holds the
// only token, so such a child cannot have completed). The return includes
// the root's implicit end-of-program wait, which blocks under the same
// rule.
func (n *twTree) w1BlockingWaits(isRoot bool) int64 {
	var total int64
	pending := false // a child submitted since the last wait
	for i, c := range n.children {
		total += c.w1BlockingWaits(false)
		pending = true
		if n.waitAfter[i] {
			total++
			pending = false
		}
	}
	if isRoot && pending {
		total++ // the implicit outermost wait finds incomplete children
	}
	return total
}

// count returns the number of nodes in the subtree.
func (n *twTree) count() int64 {
	var total int64 = 1
	for _, c := range n.children {
		total += c.count()
	}
	return total
}

// assertSubtreeDone verifies every node of the subtree has executed.
func (n *twTree) assertSubtreeDone(t *testing.T, done []atomic.Bool) {
	if !done[n.id].Load() {
		t.Errorf("node %d not done after a taskwait covering its subtree", n.id)
		return
	}
	for _, c := range n.children {
		c.assertSubtreeDone(t, done)
	}
}

// runTWProgram executes the tree under one strategy and returns the
// observables: checksum, task count, and taskwait stats.
func runTWProgram(t *testing.T, root *twTree, kind TaskwaitKind, workers int) (int64, int64, TaskwaitStats) {
	r := New(Config{Workers: workers, TaskwaitImpl: kind, Debug: true})
	total := root.count()
	done := make([]atomic.Bool, total)
	var sum atomic.Int64
	var submit func(tc *TaskContext, n *twTree)
	submit = func(tc *TaskContext, n *twTree) {
		tc.Submit(TaskSpec{Label: fmt.Sprintf("n%d", n.id), Body: func(tc *TaskContext) {
			done[n.id].Store(true)
			sum.Add(int64(n.id)*2654435761 + 1)
			for i, c := range n.children {
				submit(tc, c)
				if n.waitAfter[i] {
					tc.Taskwait()
					// The wait covers every child submitted so far — their
					// whole subtrees must have completed.
					for _, seen := range n.children[:i+1] {
						seen.assertSubtreeDone(t, done)
					}
				}
			}
		}})
	}
	err := r.RunChecked(func(tc *TaskContext) {
		// The root node stands for the implicit outermost task: its wait
		// decisions run in the root body.
		done[root.id].Store(true)
		sum.Add(int64(root.id)*2654435761 + 1)
		for i, c := range root.children {
			submit(tc, c)
			if root.waitAfter[i] {
				tc.Taskwait()
				for _, seen := range root.children[:i+1] {
					seen.assertSubtreeDone(t, done)
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("%v w=%d: %v", kind, workers, err)
	}
	root.assertSubtreeDone(t, done)
	if kind == TaskwaitContinuation {
		if n := r.ContPoolStats().Outstanding(); n != 0 {
			t.Errorf("%v w=%d: %d continuation nodes outstanding after drain", kind, workers, n)
		}
	}
	return sum.Load(), r.TaskCount(), r.TaskwaitStats()
}

// TestTaskwaitDifferential drives identical randomized nested-taskwait
// programs through the parking and continuation strategies: identical
// checksums and task counts, strategy-exclusive stats, and — at w=1, where
// blocking is deterministic — exact park/handoff counts that match the
// tree's predicted blocking waits (plus the root's implicit wait when the
// root submitted anything).
func TestTaskwaitDifferential(t *testing.T) {
	for _, seed := range randtest.SeedRange(t, 1, 7) {
		rng := rand.New(rand.NewSource(1300 + seed))
		var next int
		root := buildTWTree(rng, 3, &next)
		for _, workers := range []int{1, 4} {
			sums := make(map[TaskwaitKind]int64)
			counts := make(map[TaskwaitKind]int64)
			stats := make(map[TaskwaitKind]TaskwaitStats)
			for _, kind := range taskwaitKinds {
				sums[kind], counts[kind], stats[kind] = runTWProgram(t, root, kind, workers)
			}
			if sums[TaskwaitParking] != sums[TaskwaitContinuation] {
				t.Errorf("seed %d w=%d: checksum diverged: parking %d, continuation %d",
					seed, workers, sums[TaskwaitParking], sums[TaskwaitContinuation])
			}
			if counts[TaskwaitParking] != counts[TaskwaitContinuation] {
				t.Errorf("seed %d w=%d: task count diverged: parking %d, continuation %d",
					seed, workers, counts[TaskwaitParking], counts[TaskwaitContinuation])
			}
			ps, cs := stats[TaskwaitParking], stats[TaskwaitContinuation]
			if ps.Handoffs != 0 || ps.StealResumes != 0 {
				t.Errorf("seed %d w=%d parking: stats %+v, want zero handoffs/steal-resumes", seed, workers, ps)
			}
			if cs.Parks != 0 {
				t.Errorf("seed %d w=%d continuation: stats %+v, want zero parks", seed, workers, cs)
			}
			if workers == 1 {
				want := root.w1BlockingWaits(true)
				if ps.Parks != want {
					t.Errorf("seed %d w=1 parking: %d parks, want exactly %d", seed, ps.Parks, want)
				}
				if cs.Handoffs != want {
					t.Errorf("seed %d w=1 continuation: %d handoffs, want exactly %d", seed, cs.Handoffs, want)
				}
			}
		}
	}
}

// TestTaskwaitZeroParksMultiWorker is the headline guarantee: on a nested
// wait-heavy workload the continuation strategy never parks a worker at
// any width, while the parking reference parks on every blocking wait.
// Leaf bodies sleep so the parents' waits are guaranteed to block.
func TestTaskwaitZeroParksMultiWorker(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		for _, kind := range taskwaitKinds {
			r := New(Config{Workers: workers, TaskwaitImpl: kind, Debug: true})
			err := r.RunChecked(func(tc *TaskContext) {
				for p := 0; p < 2*workers; p++ {
					tc.Submit(TaskSpec{Label: "p", Body: func(tc *TaskContext) {
						for c := 0; c < 2; c++ {
							tc.Submit(TaskSpec{Label: "c", Body: func(*TaskContext) {
								time.Sleep(200 * time.Microsecond)
							}})
						}
						tc.Taskwait()
					}})
				}
			})
			if err != nil {
				t.Fatalf("%v w=%d: %v", kind, workers, err)
			}
			st := r.TaskwaitStats()
			switch kind {
			case TaskwaitContinuation:
				if st.Parks != 0 {
					t.Errorf("continuation w=%d: %d parks, want zero (stats %+v)", workers, st.Parks, st)
				}
				if st.Handoffs == 0 {
					t.Errorf("continuation w=%d: no handoffs on a blocking workload (stats %+v)", workers, st)
				}
			case TaskwaitParking:
				if st.Parks == 0 {
					t.Errorf("parking w=%d: no parks on a blocking workload (stats %+v)", workers, st)
				}
				if st.Handoffs != 0 {
					t.Errorf("parking w=%d: %d handoffs, want zero", workers, st.Handoffs)
				}
			}
		}
	}
}

// TestTaskwaitEdgeCases covers the corners: a taskwait racing a concurrent
// child finish (fast path vs blocking path decided by timing), taskwait
// inside a final (included) region, and double taskwait in one body.
func TestTaskwaitEdgeCases(t *testing.T) {
	for _, kind := range taskwaitKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Run("zero-children-race", func(t *testing.T) {
				// At w=2 the child often finishes before the parent's wait
				// (children==0 fast path) and often not — the loop exercises
				// both sides of the race; correctness must hold either way.
				r := New(Config{Workers: 2, TaskwaitImpl: kind, Debug: true})
				iters := 300
				if testing.Short() {
					iters = 50
				}
				var finished atomic.Int64
				err := r.RunChecked(func(tc *TaskContext) {
					tc.Submit(TaskSpec{Label: "driver", Body: func(tc *TaskContext) {
						for i := 0; i < iters; i++ {
							tc.Submit(TaskSpec{Label: "c", Body: func(*TaskContext) {
								finished.Add(1)
							}})
							if i%3 == 0 {
								runtime.Gosched() // widen the fast-path window
							}
							tc.Taskwait()
							if got := finished.Load(); got != int64(i+1) {
								t.Errorf("iter %d: %d children finished after wait", i, got)
							}
						}
					}})
				})
				if err != nil {
					t.Fatal(err)
				}
			})
			t.Run("final-region", func(t *testing.T) {
				// Submissions inside a final task run inline and register no
				// children, so an inner taskwait is a completed no-op: at w=1
				// the only blocking wait in the program is the root's.
				r := New(Config{Workers: 1, TaskwaitImpl: kind, Debug: true})
				var order []string
				err := r.RunChecked(func(tc *TaskContext) {
					tc.Submit(TaskSpec{Label: "f", Final: true, Body: func(tc *TaskContext) {
						tc.Submit(TaskSpec{Label: "inc", Body: func(tc *TaskContext) {
							order = append(order, "included")
							tc.Taskwait() // included task: no children either
						}})
						order = append(order, "after-submit")
						tc.Taskwait()
						order = append(order, "after-wait")
					}})
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(order) != 3 || order[0] != "included" || order[2] != "after-wait" {
					t.Errorf("final-region order %v", order)
				}
				st := r.TaskwaitStats()
				if got := st.Parks + st.Handoffs; got != 1 {
					t.Errorf("%d blocking waits (stats %+v), want 1 (the root's)", got, st)
				}
			})
			t.Run("double-taskwait", func(t *testing.T) {
				// Two blocking waits in one body: the second wait must block
				// again (fresh signal/continuation state), giving exactly
				// 2 parent waits + 1 root wait at w=1.
				r := New(Config{Workers: 1, TaskwaitImpl: kind, Debug: true})
				var ran atomic.Int64
				err := r.RunChecked(func(tc *TaskContext) {
					tc.Submit(TaskSpec{Label: "p", Body: func(tc *TaskContext) {
						tc.Submit(TaskSpec{Label: "c1", Body: func(*TaskContext) { ran.Add(1) }})
						tc.Taskwait()
						if ran.Load() != 1 {
							t.Error("first wait returned before c1")
						}
						tc.Submit(TaskSpec{Label: "c2", Body: func(*TaskContext) { ran.Add(1) }})
						tc.Taskwait()
						if ran.Load() != 2 {
							t.Error("second wait returned before c2")
						}
					}})
				})
				if err != nil {
					t.Fatal(err)
				}
				st := r.TaskwaitStats()
				if got := st.Parks + st.Handoffs; got != 3 {
					t.Errorf("%d blocking waits (stats %+v), want 3", got, st)
				}
			})
		})
	}
}

// TestTaskwaitW1Parity guards the continuation machinery's constant factor
// on one worker, where wait-freedom buys nothing: a nested-taskwait
// workload must run within 1.5x of the parking reference.
func TestTaskwaitW1Parity(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard; skipped in short mode")
	}
	if raceEnabledCore {
		t.Skip("timing guard; race instrumentation skews the comparison")
	}
	const waves = 400
	const trials = 5
	sweep := func(kind TaskwaitKind) time.Duration {
		r := New(Config{Workers: 1, TaskwaitImpl: kind})
		start := time.Now()
		r.Run(func(tc *TaskContext) {
			tc.Submit(TaskSpec{Label: "driver", Body: func(tc *TaskContext) {
				for i := 0; i < waves; i++ {
					tc.Submit(TaskSpec{Label: "c", Body: func(tc *TaskContext) {
						tc.Submit(TaskSpec{Label: "g"})
						tc.Taskwait()
					}})
					tc.Taskwait()
				}
			}})
		})
		return time.Since(start)
	}
	best := map[TaskwaitKind]time.Duration{TaskwaitParking: 1<<63 - 1, TaskwaitContinuation: 1<<63 - 1}
	for trial := 0; trial < trials; trial++ {
		for _, kind := range taskwaitKinds {
			runtime.GC()
			if dur := sweep(kind); dur < best[kind] {
				best[kind] = dur
			}
		}
	}
	f := float64(best[TaskwaitContinuation]) / float64(best[TaskwaitParking])
	if f > 1.5 {
		t.Errorf("continuation w=1: %.2fx slower than parking (%v vs %v); the handoff path regressed",
			f, best[TaskwaitContinuation], best[TaskwaitParking])
	} else {
		t.Logf("continuation w=1: %.2fx of parking (%v vs %v)",
			f, best[TaskwaitContinuation], best[TaskwaitParking])
	}
}

// TestGraphOwnerTaskwaitStaysEligible pins one direction of the
// replay-eligibility decision: a blocking owner-level taskwait between
// submissions is owner body code, re-executed identically by every
// execution, so the recording stays replayable — and the recorded trace
// counts the wait (Recording.OwnerWaits).
func TestGraphOwnerTaskwaitStaysEligible(t *testing.T) {
	for _, kind := range taskwaitKinds {
		r := New(Config{Workers: 2, TaskwaitImpl: kind, Debug: true})
		d := r.NewData("a", 8, 8)
		data := make([]int64, 8)
		const iters = 3
		err := r.RunChecked(func(tc *TaskContext) {
			for it := 0; it < iters; it++ {
				tc.Graph("owner-wait", func(tc *TaskContext) {
					tc.Submit(TaskSpec{Label: "A",
						Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(0, 8)}}},
						Body: func(*TaskContext) {
							// Hold back until the owner is blocked in its
							// wait: a wait that finds nothing to wait for
							// is not recorded, and whether the recording
							// sweep's did was a race between A and the
							// owner.
							for owner := tc.task; ; runtime.Gosched() {
								owner.mu.Lock()
								blocked := owner.waiting || owner.cont != nil
								owner.mu.Unlock()
								if blocked {
									break
								}
							}
							for p := range data {
								data[p]++
							}
						}})
					// Owner-level barrier mid-region: A must be complete
					// before B is even submitted, on every execution mode.
					tc.Taskwait()
					want := int64(1)
					tc.Submit(TaskSpec{Label: "B",
						Deps: []Dep{{Data: d, Type: In, Ivs: []Interval{iv(0, 8)}}},
						Body: func(*TaskContext) {
							if data[0] < want {
								t.Error("B observed A incomplete after the owner wait")
							}
						}})
				})
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		st := r.ReplayStats()
		if st.Records != 1 || st.Replays != iters-1 || st.Fallbacks != 0 || st.Invalidations != 0 {
			t.Errorf("%v: replay stats %+v, want 1 record, %d replays, no fallbacks/invalidations",
				kind, st, iters-1)
		}
		region := r.regionFor("owner-wait")
		if region.rec == nil {
			t.Fatalf("%v: no recording retained", kind)
		}
		if ok, reason := region.rec.Eligible(); !ok {
			t.Errorf("%v: recording ineligible (%s); owner waits must stay eligible", kind, reason)
		}
		if got := region.rec.OwnerWaits(); got != 1 {
			t.Errorf("%v: OwnerWaits = %d, want 1 (the recorded mid-region wait)", kind, got)
		}
	}
}

// TestGraphRegionTaskwaitIneligible pins the other direction: a blocking
// taskwait inside a region member task implies nested submissions, which
// the frozen completion-edge graph cannot express — the recording is
// marked ineligible and every later execution falls back to live.
func TestGraphRegionTaskwaitIneligible(t *testing.T) {
	for _, kind := range taskwaitKinds {
		r := New(Config{Workers: 2, TaskwaitImpl: kind, Debug: true})
		var nested atomic.Int64
		const iters = 3
		err := r.RunChecked(func(tc *TaskContext) {
			for it := 0; it < iters; it++ {
				tc.Graph("member-wait", func(tc *TaskContext) {
					tc.Submit(TaskSpec{Label: "M", Body: func(tc *TaskContext) {
						tc.Submit(TaskSpec{Label: "inner", Body: func(*TaskContext) {
							nested.Add(1)
						}})
						tc.Taskwait() // member-task wait: poisons replayability
						if nested.Load() == 0 {
							t.Error("member taskwait returned before the nested child ran")
						}
					}})
				})
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if got := nested.Load(); got != iters {
			t.Errorf("%v: %d nested children ran, want %d", kind, got, iters)
		}
		st := r.ReplayStats()
		if st.Records != 1 || st.Replays != 0 || st.Fallbacks != iters-1 {
			t.Errorf("%v: replay stats %+v, want 1 record, 0 replays, %d fallbacks",
				kind, st, iters-1)
		}
		region := r.regionFor("member-wait")
		if region.rec == nil {
			t.Fatalf("%v: no recording retained", kind)
		}
		if ok, _ := region.rec.Eligible(); ok {
			t.Errorf("%v: recording still eligible after a member-task taskwait", kind)
		}
	}
}
