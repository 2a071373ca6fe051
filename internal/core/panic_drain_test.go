package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Panic-safe drain tests: a panic anywhere in the task tree — inside a
// replayed graph region, a final serial task, a worksharing owner — must
// poison its region, drain the runtime to quiescence with every pooled
// object recycled and the throttle window empty, and surface exactly one
// *TaskError. Every test runs with Debug so runErr's joined leak checks
// (pools, fragments, live tasks, window occupancy) are part of
// the assertion: a drain that leaked turns the TaskError into a join that
// the "debug check failed" scan below catches.

// wantTaskError asserts err carries a *TaskError with the given label and
// value as the primary failure, and that no Debug leak check fired.
func wantTaskError(t *testing.T, err error, label string, value any) *TaskError {
	t.Helper()
	if err == nil {
		t.Fatal("run succeeded, want a TaskError")
	}
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("got %v, want a TaskError", err)
	}
	if te.Label != label || te.Value != value {
		t.Fatalf("wrong failure: got %q/%v, want %q/%v", te.Label, te.Value, label, value)
	}
	if strings.Contains(err.Error(), "debug check failed") {
		t.Fatalf("drain leaked: %v", err)
	}
	return te
}

// assertDrained re-checks the pool counters directly (belt and braces over
// the Debug join, and usable for the Workers-token and throttle shape).
func assertDrained(t *testing.T, r *Runtime) {
	t.Helper()
	if ms, ok := r.MemStats(); ok && ms.Outstanding() != 0 {
		t.Errorf("%d pooled dependency objects outstanding", ms.Outstanding())
	}
	if n := r.ReplayPoolStats().Outstanding(); n != 0 {
		t.Errorf("%d replay countdown nodes outstanding", n)
	}
	if n := r.WsPoolStats().Outstanding(); n != 0 {
		t.Errorf("%d worksharing descriptors outstanding", n)
	}
	if r.thr != nil {
		if open := r.thr.Open(); open != 0 {
			t.Errorf("throttle still reports %d open tasks", open)
		}
		if n := r.thr.Waiters(); n != 0 {
			t.Errorf("%d throttle reservers still parked after drain", n)
		}
	}
}

// graphIter submits a fixed 4-task dependent chain into the current graph
// region; boom >= 0 makes that member panic.
func graphIter(tc *TaskContext, d DataID, boom int, ran *atomic.Int64) {
	for i := 0; i < 4; i++ {
		i := i
		tc.Submit(TaskSpec{
			Label: "member",
			Deps:  []Dep{{Data: d, Type: InOut, Ivs: []Interval{{Lo: 0, Hi: 8}}}},
			Body: func(*TaskContext) {
				if i == boom {
					panic("member boom")
				}
				ran.Add(1)
			},
		})
	}
}

// TestPanicInReplayedGraphInvalidatesRecording: iteration 0 records,
// iteration 1 replays and a member task panics mid-replay. The recording
// must be invalidated — the failed execution skipped bodies, so its
// submission stream was never validated to the end — and the countdown
// nodes must return to their pool.
func TestPanicInReplayedGraphInvalidatesRecording(t *testing.T) {
	r := New(Config{Workers: 4, Debug: true})
	d := r.NewData("x", 64, 8)
	var ran atomic.Int64
	err := r.RunChecked(func(tc *TaskContext) {
		for it := 0; it < 2; it++ {
			boom := -1
			if it == 1 {
				boom = 2
			}
			tc.Graph("g", func(tc *TaskContext) { graphIter(tc, d, boom, &ran) })
		}
	})
	wantTaskError(t, err, "member", "member boom")
	assertDrained(t, r)
	st := r.ReplayStats()
	if st.Records != 1 {
		t.Errorf("Records = %d, want 1 (iteration 0 only)", st.Records)
	}
	if st.Replays != 0 {
		t.Errorf("Replays = %d, want 0 (the panicked replay must not count as clean)", st.Replays)
	}
	if st.Invalidations != 1 {
		t.Errorf("Invalidations = %d, want 1 (panic poisons the recording)", st.Invalidations)
	}
}

// TestPanicInGraphOwnerDuringReplay: the region owner's body panics between
// replay submissions (abortRegion's unwind path): the admitted prefix must
// drain, the nodes recycle, the recording invalidate, and the region slot
// release — proven by the next iteration executing (and re-recording)
// rather than skipping as "region busy".
func TestPanicInGraphOwnerDuringReplay(t *testing.T) {
	r := New(Config{Workers: 4, Debug: true})
	d := r.NewData("x", 64, 8)
	var ran atomic.Int64
	err := r.RunChecked(func(tc *TaskContext) {
		tc.Graph("g", func(tc *TaskContext) { graphIter(tc, d, -1, &ran) }) // records
		tc.Graph("g", func(tc *TaskContext) {                               // replays, owner panics mid-stream
			graphIter(tc, d, -1, &ran)
			panic("owner boom")
		})
	})
	wantTaskError(t, err, "main", "owner boom")
	assertDrained(t, r)
	st := r.ReplayStats()
	if st.Records != 1 || st.Replays != 0 || st.Invalidations != 1 {
		t.Errorf("stats = %+v, want 1 record / 0 replays / 1 invalidation", st)
	}
}

// TestPanicDuringRecordingNeverSeals: a member panic during the recording
// execution truncates the observed submission stream (bodies after the
// failure are skipped); the partial recording must never seal.
func TestPanicDuringRecordingNeverSeals(t *testing.T) {
	r := New(Config{Workers: 4, Debug: true})
	d := r.NewData("x", 64, 8)
	var ran atomic.Int64
	err := r.RunChecked(func(tc *TaskContext) {
		tc.Graph("g", func(tc *TaskContext) { graphIter(tc, d, 1, &ran) })
	})
	wantTaskError(t, err, "member", "member boom")
	assertDrained(t, r)
	if st := r.ReplayStats(); st.Records != 0 {
		t.Errorf("Records = %d, want 0 (a truncated recording must not seal)", st.Records)
	}
}

// TestPanicInFinalTask: a final task runs its subtree inline and serial;
// a panic in the final body itself and in an included descendant must both
// surface with the right label and drain clean.
func TestPanicInFinalTask(t *testing.T) {
	for _, tcase := range []struct {
		name, wantLabel string
		inner           bool
	}{
		{name: "final-body", wantLabel: "final"},
		{name: "included-descendant", wantLabel: "included", inner: true},
	} {
		t.Run(tcase.name, func(t *testing.T) {
			r := New(Config{Workers: 2, ThrottleOpenTasks: 4, Debug: true})
			err := r.RunChecked(func(tc *TaskContext) {
				tc.Submit(TaskSpec{
					Label: "final",
					Final: true,
					Body: func(tc *TaskContext) {
						if !tcase.inner {
							panic("final boom")
						}
						tc.Submit(TaskSpec{
							Label: "included",
							Body:  func(*TaskContext) { panic("final boom") },
						})
					},
				})
			})
			wantTaskError(t, err, tcase.wantLabel, "final boom")
			assertDrained(t, r)
		})
	}
}

// TestPanicInWorksharingOwnerBeforeHelpers: the owner claims the very
// first chunk and panics before any helper can consume an invitation. The
// announce-holds must still release (helpers that arrive later drain
// skipped chunks), the descriptor must recycle, and the run must not hang.
func TestPanicInWorksharingOwnerBeforeHelpers(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r := New(Config{Workers: workers, Debug: true})
		err := r.RunChecked(func(tc *TaskContext) {
			tc.Worksharing(WorksharingSpec{
				Label: "ws-owner-panic",
				Lo:    0, Hi: 1 << 14, Grain: 1,
				Body: func(tc *TaskContext, lo, hi int64) {
					if lo == 0 {
						panic("owner chunk boom")
					}
				},
			})
		})
		wantTaskError(t, err, "ws-owner-panic", "owner chunk boom")
		assertDrained(t, r)
	}
}

// TestPanicInTaskgroup: a panic inside a taskgroup body's submitted task
// drains the group and surfaces; the group's waiter must not hang.
func TestPanicInTaskgroup(t *testing.T) {
	r := New(Config{Workers: 4, Debug: true})
	err := r.RunChecked(func(tc *TaskContext) {
		tc.Taskgroup(func() {
			for i := 0; i < 16; i++ {
				i := i
				tc.Submit(TaskSpec{
					Label: "grouped",
					Body: func(*TaskContext) {
						if i == 7 {
							panic("group boom")
						}
					},
				})
			}
		})
	})
	wantTaskError(t, err, "grouped", "group boom")
	assertDrained(t, r)
}

// TestRunRepanicsAfterDrain: Run's re-panic must happen only after the
// graph has drained to quiescence — zero outstanding pool objects, an
// empty throttle window — so a recovering caller observes a clean runtime.
func TestRunRepanicsAfterDrain(t *testing.T) {
	r := New(Config{
		Workers:           4,
		ThrottleOpenTasks: 4,
		Debug:             true,
	})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		r.Run(func(tc *TaskContext) {
			for i := 0; i < 64; i++ {
				i := i
				tc.Submit(TaskSpec{
					Label: "burst",
					Body: func(tc *TaskContext) {
						tc.Submit(TaskSpec{Label: "nested", Body: func(*TaskContext) {}})
						if i == 32 {
							panic("burst boom")
						}
					},
				})
			}
		})
	}()
	if recovered == nil {
		t.Fatal("Run did not re-panic")
	}
	err, ok := recovered.(error)
	if !ok {
		t.Fatalf("Run panicked with %v, want an error", recovered)
	}
	wantTaskError(t, err, "burst", "burst boom")
	assertDrained(t, r)
	// Quiescence includes the ready pool: every token home, nothing queued.
	// The worker that completed the last task releases its token just after
	// Run is woken, so give the tokens a moment to come home.
	pr := r.sch.Probe()
	for deadline := time.Now().Add(2 * time.Second); pr.FreeTokens != r.Workers() && time.Now().Before(deadline); pr = r.sch.Probe() {
		time.Sleep(100 * time.Microsecond)
	}
	if pr.Queued != 0 || pr.Waiters != 0 || pr.FreeTokens != r.Workers() {
		t.Errorf("pool not quiescent after re-panic: %+v", pr)
	}
}
