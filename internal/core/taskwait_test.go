package core

// Tests for Taskwait: the help step (a waiting task runs its queued
// descendants itself) and the parking path behind it. The differential
// suite runs randomized nested programs on the stealing pool, whose waits
// help, and on the central queue, whose waits never do; exact stats at w=1;
// the descendants-only rule's counterexample; one park per blocked wait at
// multiple widths; edge cases (zero children racing a child finish,
// taskwait inside a final region, double taskwait in one body); and the
// record-and-replay eligibility decision in both directions.
//
// At one worker on the stealing pool no wait blocks: every child is still
// on the waiter's deque. Tests of the blocking paths therefore either run
// on the central queue or start the children on another worker
// (submitElsewhere).

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/randtest"
	"repro/internal/sched"
)

// twPolicies pick the two ready pools: FIFO runs the stealing pool, whose
// waits help, LIFO the central queue, whose waits always block.
var twPolicies = []sched.Policy{sched.FIFO, sched.LIFO}

// blockedInWait reports whether t is parked in a taskwait.
func (t *Task) blockedInWait() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.waiting
}

// submitElsewhere submits a child that is certain to start on another
// worker and to still be running when the caller's next wait begins, so
// that wait blocks: the submission waits for a free token (a child started
// on a free token never reaches the caller's deque, so the wait has nothing
// to help with), and the child holds back until the caller is blocked. For
// programs in which nothing else competes for free tokens.
func submitElsewhere(tc *TaskContext, body func()) {
	for tc.rt.sch.(sched.Prober).Probe().FreeTokens == 0 {
		runtime.Gosched()
	}
	parent := tc.task
	tc.Submit(TaskSpec{Label: "elsewhere", Body: func(*TaskContext) {
		for !parent.blockedInWait() {
			runtime.Gosched()
		}
		if body != nil {
			body()
		}
	}})
}

// TestTaskwaitExactStats: at w=1 everything is deterministic — a parent
// holding the only worker token guarantees its queued child has not run
// when the wait starts. On the stealing pool every wait therefore helps and
// none blocks: K parents and K children, all run inline (the parents by the
// root's implicit end-of-program wait). On the central queue none helps and
// every wait blocks: K parent waits plus the root's.
func TestTaskwaitExactStats(t *testing.T) {
	const parents = 7
	for _, policy := range twPolicies {
		r := New(Config{Workers: 1, Policy: policy, Debug: true})
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
			t.Fatalf("%v: %v", policy, err)
		}
		want := TaskwaitStats{Inlined: 2 * parents}
		if policy == sched.LIFO {
			want = TaskwaitStats{Parks: parents + 1}
		}
		if st := r.TaskwaitStats(); st != want {
			t.Errorf("%v: stats %+v, want %+v", policy, st, want)
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
// all derived from rng up front so both pools run the identical program.
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

// w1BlockingWaits counts the blocking taskwaits the tree produces at w=1 on
// the central queue, where blocking is deterministic: a wait blocks iff at
// least one child was submitted since the body's previous wait (the
// submitter holds the only token, so such a child cannot have completed).
// The return includes the root's implicit end-of-program wait, which blocks
// under the same rule.
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

// runTWProgram executes the tree on one pool and returns the observables:
// checksum, task count, and taskwait stats.
func runTWProgram(t *testing.T, root *twTree, policy sched.Policy, workers int) (int64, int64, TaskwaitStats) {
	r := New(Config{Workers: workers, Policy: policy, Debug: true})
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
		t.Fatalf("%v w=%d: %v", policy, workers, err)
	}
	root.assertSubtreeDone(t, done)
	return sum.Load(), r.TaskCount(), r.TaskwaitStats()
}

// TestTaskwaitDifferential drives identical randomized nested-taskwait
// programs through both pools — the stealing pool, whose waits help, and
// the central queue, whose waits never do: identical checksums and task
// counts at w=1 and w=4, nothing inlined on the central queue, zero
// Handoffs and StealResumes anywhere, and, at w=1, where everything is
// deterministic, exact counts — on the stealing pool every task runs inline
// and no wait parks, on the central queue nothing runs inline and the parks
// match the tree's predicted blocking waits (plus the root's implicit wait
// when the root submitted anything).
func TestTaskwaitDifferential(t *testing.T) {
	for _, seed := range randtest.SeedRange(t, 1, 7) {
		rng := rand.New(rand.NewSource(1300 + seed))
		var next int
		root := buildTWTree(rng, 3, &next)
		for _, workers := range []int{1, 4} {
			var sum0, count0 int64
			for i, policy := range twPolicies {
				sum, count, st := runTWProgram(t, root, policy, workers)
				if i == 0 {
					sum0, count0 = sum, count
				} else if sum != sum0 || count != count0 {
					t.Errorf("seed %d w=%d: %v ran checksum %d over %d tasks, %v %d over %d",
						seed, workers, policy, sum, count, twPolicies[0], sum0, count0)
				}
				if st.Handoffs != 0 || st.StealResumes != 0 {
					t.Errorf("seed %d w=%d %v: stats %+v, want zero handoffs/steal-resumes", seed, workers, policy, st)
				}
				if policy == sched.LIFO && st.Inlined != 0 {
					t.Errorf("seed %d w=%d central queue: %d tasks inlined, want none", seed, workers, st.Inlined)
				}
				if workers > 1 {
					continue
				}
				want := TaskwaitStats{Inlined: root.count() - 1}
				if policy == sched.LIFO {
					want = TaskwaitStats{Parks: root.w1BlockingWaits(true)}
				}
				if st != want {
					t.Errorf("seed %d w=1 %v: stats %+v, want exactly %+v", seed, policy, st, want)
				}
			}
		}
	}
}

// TestTaskwaitInlineDescendantsOnly is the counterexample behind the help
// step's descendants-only rule, at one worker, where every ready task sits
// on the deque the waits help from. W {inout x[0,8)} submits d (no deps)
// and c {inout x[0,4)}, releases x[0,4) — handed over to c — and waits. Its
// sibling Y {inout x[0,4), weakinout x[4,8)} becomes ready when c completes
// inside W's wait; Y's child y2 {inout x[4,8)} needs W to complete. Run on
// W's goroutine, Y would wait for y2 on top of W's frame, which can return
// — and release x[4,8) — only after Y's wait does: a deadlock. Declining Y
// makes W block, and Y runs on a goroutine of its own.
func TestTaskwaitInlineDescendantsOnly(t *testing.T) {
	r := New(Config{Workers: 1, Debug: true})
	x := r.NewData("x", 8, 8)
	on := func(typ AccessType, weak bool, lo, hi int64) Dep {
		return Dep{Data: x, Type: typ, Weak: weak, Ivs: []Interval{iv(lo, hi)}}
	}
	var ran atomic.Int64
	leaf := func(*TaskContext) { ran.Add(1) }
	done := make(chan error, 1)
	go func() {
		done <- r.RunChecked(func(tc *TaskContext) {
			tc.Submit(TaskSpec{Label: "W", Deps: []Dep{on(InOut, false, 0, 8)}, Body: func(tc *TaskContext) {
				tc.Submit(TaskSpec{Label: "d", Body: leaf})
				tc.Submit(TaskSpec{Label: "c", Deps: []Dep{on(InOut, false, 0, 4)}, Body: leaf})
				tc.Release(Dep{Data: x, Ivs: []Interval{iv(0, 4)}})
				tc.Taskwait()
			}})
			tc.Submit(TaskSpec{Label: "Y", Deps: []Dep{on(InOut, false, 0, 4), on(InOut, true, 4, 8)}, Body: func(tc *TaskContext) {
				tc.Submit(TaskSpec{Label: "y2", Deps: []Dep{on(InOut, false, 4, 8)}, Body: leaf})
				tc.Taskwait()
			}})
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no progress after 3s — a wait ran a task that is not its descendant")
	}
	if got := ran.Load(); got != 3 {
		t.Errorf("%d leaves ran, want 3", got)
	}
	// Deterministic at one worker: the root's end-of-program wait runs W,
	// W's runs c, and the root adopts y2 as W's hand-off successor (y2
	// descends from the root); W, Y and then the root park.
	if st := r.TaskwaitStats(); st != (TaskwaitStats{Inlined: 3, Parks: 3}) {
		t.Errorf("stats %+v, want 3 inlined and 3 parks", st)
	}
}

// TestTaskwaitOneParkPerBlockedWait: a wait that finds nothing to help with
// parks exactly once, at every width, and Handoffs and StealResumes stay
// at zero. Each round the root starts every other worker on a child it must
// wait for, so each of its waits blocks exactly once and helps with
// nothing.
func TestTaskwaitOneParkPerBlockedWait(t *testing.T) {
	const rounds = 5
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("w=%d", workers), func(t *testing.T) {
			r := New(Config{Workers: workers, Debug: true})
			var ran atomic.Int64
			err := r.RunChecked(func(tc *TaskContext) {
				for round := 0; round < rounds; round++ {
					for c := 1; c < workers; c++ {
						submitElsewhere(tc, func() { ran.Add(1) })
					}
					tc.Taskwait()
					if got := ran.Load(); got != int64((round+1)*(workers-1)) {
						t.Errorf("w=%d round %d: wait returned after %d children", workers, round, got)
					}
				}
			})
			if err != nil {
				t.Fatalf("w=%d: %v", workers, err)
			}
			if st := r.TaskwaitStats(); st != (TaskwaitStats{Parks: rounds}) {
				t.Errorf("w=%d: stats %+v, want exactly %d parks", workers, st, rounds)
			}
		})
	}
}

// TestTaskwaitEdgeCases covers the corners, on both pools: a taskwait
// racing a concurrent child finish (fast path vs blocking path decided by
// timing), taskwait inside a final (included) region, and double taskwait
// in one body.
func TestTaskwaitEdgeCases(t *testing.T) {
	for _, policy := range twPolicies {
		t.Run(policy.String(), func(t *testing.T) {
			t.Run("zero-children-race", func(t *testing.T) {
				// At w=2 the child often finishes before the parent's wait
				// (children==0 fast path) and often not — the loop exercises
				// both sides of the race; correctness must hold either way.
				r := New(Config{Workers: 2, Policy: policy, Debug: true})
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
				// the only wait with a child is the root's: the stealing
				// pool's runs f itself, the central queue's parks.
				r := New(Config{Workers: 1, Policy: policy, Debug: true})
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
				want := TaskwaitStats{Inlined: 1}
				if policy == sched.LIFO {
					want = TaskwaitStats{Parks: 1}
				}
				if st := r.TaskwaitStats(); st != want {
					t.Errorf("stats %+v, want %+v", st, want)
				}
			})
			t.Run("double-taskwait", func(t *testing.T) {
				// Two blocking waits in one body, on children started on the
				// other worker: the second wait must park again (the reused
				// signal channel is empty), giving exactly 2 parent parks +
				// 1 root park. p starts on the free token; the root's wait
				// finds nothing to help with and blocks first, freeing the
				// token c1 starts on.
				r := New(Config{Workers: 2, Policy: policy, Debug: true})
				var ran atomic.Int64
				err := r.RunChecked(func(tc *TaskContext) {
					tc.Submit(TaskSpec{Label: "p", Body: func(tc *TaskContext) {
						submitElsewhere(tc, func() { ran.Add(1) })
						tc.Taskwait()
						if ran.Load() != 1 {
							t.Error("first wait returned before c1")
						}
						submitElsewhere(tc, func() { ran.Add(1) })
						tc.Taskwait()
						if ran.Load() != 2 {
							t.Error("second wait returned before c2")
						}
					}})
				})
				if err != nil {
					t.Fatal(err)
				}
				if st := r.TaskwaitStats(); st != (TaskwaitStats{Parks: 3}) {
					t.Errorf("stats %+v, want 3 parks and none inlined", st)
				}
			})
		})
	}
}

// TestGraphOwnerTaskwaitStaysEligible pins one direction of the
// replay-eligibility decision: an owner-level taskwait between submissions
// is owner body code, re-executed identically by every execution, so the
// recording stays replayable — and the recorded trace counts the wait
// (Recording.OwnerWaits) whether it blocked or ran A itself: at one worker
// the owner's wait always runs A inline, at two A starts on the free token
// and the wait blocks.
func TestGraphOwnerTaskwaitStaysEligible(t *testing.T) {
	for _, workers := range []int{1, 2} {
		r := New(Config{Workers: workers, Debug: true})
		d := r.NewData("a", 8, 8)
		data := make([]int64, 8)
		const iters = 3
		err := r.RunChecked(func(tc *TaskContext) {
			for it := 0; it < iters; it++ {
				tc.Graph("owner-wait", func(tc *TaskContext) {
					inlined := r.TaskwaitStats().Inlined
					tc.Submit(TaskSpec{Label: "A",
						Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(0, 8)}}},
						Body: func(*TaskContext) {
							// Hold back until the owner is in its wait —
							// blocked, or running A itself: a wait that
							// finds nothing to wait for is not recorded,
							// and whether the recording sweep's did
							// would be a race between A and the owner.
							for owner := tc.task; !owner.blockedInWait() && r.TaskwaitStats().Inlined == inlined; {
								runtime.Gosched()
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
			t.Fatalf("w=%d: %v", workers, err)
		}
		st := r.ReplayStats()
		if st.Records != 1 || st.Replays != iters-1 || st.Fallbacks != 0 || st.Invalidations != 0 {
			t.Errorf("w=%d: replay stats %+v, want 1 record, %d replays, no fallbacks/invalidations",
				workers, st, iters-1)
		}
		region := r.regionFor("owner-wait")
		if region.rec == nil {
			t.Fatalf("w=%d: no recording retained", workers)
		}
		if ok, reason := region.rec.Eligible(); !ok {
			t.Errorf("w=%d: recording ineligible (%s); owner waits must stay eligible", workers, reason)
		}
		if got := region.rec.OwnerWaits(); got != 1 {
			t.Errorf("w=%d: OwnerWaits = %d, want 1 (the recorded mid-region wait)", workers, got)
		}
	}
}

// TestGraphRegionTaskwaitIneligible pins the other direction: a blocking
// taskwait inside a region member task implies nested submissions, which
// the frozen completion-edge graph cannot express — the recording is
// marked ineligible and every later execution falls back to live.
func TestGraphRegionTaskwaitIneligible(t *testing.T) {
	r := New(Config{Workers: 2, Debug: true})
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
		t.Fatal(err)
	}
	if got := nested.Load(); got != iters {
		t.Errorf("%d nested children ran, want %d", got, iters)
	}
	st := r.ReplayStats()
	if st.Records != 1 || st.Replays != 0 || st.Fallbacks != iters-1 {
		t.Errorf("replay stats %+v, want 1 record, 0 replays, %d fallbacks",
			st, iters-1)
	}
	region := r.regionFor("member-wait")
	if region.rec == nil {
		t.Fatal("no recording retained")
	}
	if ok, _ := region.rec.Eligible(); ok {
		t.Error("recording still eligible after a member-task taskwait")
	}
}
