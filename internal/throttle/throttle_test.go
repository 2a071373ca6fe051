package throttle

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/randtest"
)

// TestNewReadsOnlyLimit pins the constructor contract: the window's bound
// is limit whatever worker count is passed, a fresh window is empty with
// every slot free, and a non-positive limit is rejected.
func TestNewReadsOnlyLimit(t *testing.T) {
	for _, workers := range []int{0, 1, 64} {
		w := New(KindAuto, 5, workers)
		if w.Limit() != 5 || w.Open() != 0 || w.Credits() != 5 || w.Waiters() != 0 {
			t.Errorf("workers=%d: Limit=%d Open=%d Credits=%d Waiters=%d, want 5 0 5 0",
				workers, w.Limit(), w.Open(), w.Credits(), w.Waiters())
		}
	}
	for _, limit := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(limit=%d) did not panic", limit)
				}
			}()
			New(KindAuto, limit, 2)
		}()
	}
}

// enter reserves one slot and records the entry the way a throttled
// submitter of a ready task does.
func enter(w *Window, worker int, y Yielder) int {
	worker, prepaid := w.Reserve(worker, y)
	if prepaid {
		panic("throttle: Reserve prepaid a slot")
	}
	w.Entered(1)
	return worker
}

// TestReservedBound checks the bound on reserved-only admission:
// occupancy never exceeds limit plus the check-then-act overshoot of one
// slot per concurrent reserver, so a lone reserver holds the limit
// exactly. A goroutine starts its previous entry before reserving the next
// one — in the real runtime the two sides run on different goroutines
// (submitters vs workers), and ready tasks always drain — so with a window
// smaller than the reserver count the slow path parks and wakes throughout.
func TestReservedBound(t *testing.T) {
	perG := 2000
	if testing.Short() {
		perG = 400
	}
	for _, reservers := range []int{1, 2, 4} {
		for _, limit := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("reservers=%d/limit=%d", reservers, limit), func(t *testing.T) {
				w := New(KindAuto, limit, reservers)
				bound := int64(limit + reservers - 1)
				var maxOpen atomic.Int64
				var wg sync.WaitGroup
				barrier := make(chan struct{})
				for g := 0; g < reservers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						<-barrier
						pending := 0
						for i := 0; i < perG; i++ {
							if pending > 0 {
								w.Started(g)
								pending--
							}
							enter(w, g, nil)
							pending++
							if o := w.Open(); o > maxOpen.Load() {
								maxOpen.Store(o)
							}
						}
						for ; pending > 0; pending-- {
							w.Started(g)
						}
					}(g)
				}
				close(barrier)
				wg.Wait()
				if got := maxOpen.Load(); got > bound {
					t.Errorf("occupancy reached %d, want <= %d", got, bound)
				}
				if got := w.Open(); got != 0 {
					t.Errorf("Open() = %d at quiescence, want 0", got)
				}
			})
		}
	}
}

// TestRandomSchedules drives the window over seeded randomized
// submit/defer/cascade schedules, mirroring the runtime's structure:
// submitter goroutines reserve and enter (and may park), while dedicated
// drainer goroutines start every window occupant (ready tasks always
// drain, which is what makes the throttle deadlock-free). Every run must
// complete (no deadlock, no lost wakeup), start exactly what entered, and
// end quiescent: nothing open, nobody parked, Credits() == Limit().
func TestRandomSchedules(t *testing.T) {
	const submitters = 4
	run := func(limit int, seed uint64, perG int) {
		w := New(KindAuto, limit, submitters)
		var entered, started atomic.Int64
		var subs sync.WaitGroup
		for g := 0; g < submitters; g++ {
			subs.Add(1)
			go func(g int) {
				defer subs.Done()
				rng := rand.New(rand.NewPCG(seed, uint64(g)))
				for i := 0; i < perG; i++ {
					switch rng.IntN(8) {
					case 0, 1, 2, 3, 4: // throttled submit of a ready child
						enter(w, g, nil)
						entered.Add(1)
					case 5: // throttled submit of a deferred child
						w.Reserve(g, nil)
					default: // dependency cascade readies a burst (may overdraw)
						n := int64(1 + rng.IntN(3))
						w.Entered(n)
						entered.Add(n)
					}
				}
			}(g)
		}
		// Drainers play the workers: start whatever occupies the window.
		stop := make(chan struct{})
		var drainers sync.WaitGroup
		for d := 0; d < 2; d++ {
			drainers.Add(1)
			go func(d int) {
				defer drainers.Done()
				for {
					if s := started.Load(); s < entered.Load() {
						if started.CompareAndSwap(s, s+1) {
							w.Started(d)
						}
						continue
					}
					select {
					case <-stop:
						if started.Load() == entered.Load() {
							return
						}
					default:
					}
					runtime.Gosched()
				}
			}(d)
		}
		done := make(chan struct{})
		go func() { subs.Wait(); close(stop); drainers.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("limit=%d seed=%d: window deadlocked", limit, seed)
		}
		if e, s := entered.Load(), started.Load(); e != s {
			t.Errorf("limit=%d seed=%d: %d entries vs %d starts", limit, seed, e, s)
		}
		if got := w.Open(); got != 0 {
			t.Errorf("limit=%d seed=%d: Open() = %d at quiescence, want 0", limit, seed, got)
		}
		if got := w.Waiters(); got != 0 {
			t.Errorf("limit=%d seed=%d: %d waiters at quiescence", limit, seed, got)
		}
		if got := w.Credits(); got != int64(limit) {
			t.Errorf("limit=%d seed=%d: Credits() = %d at quiescence, want %d", limit, seed, got, limit)
		}
	}
	perG := 3000
	if testing.Short() {
		perG = 600
	}
	for _, limit := range []int{1, 2, 7, 64} {
		for _, s := range randtest.SeedRange(t, 0, 4) {
			run(limit, uint64(s), perG)
		}
	}
}

// waitParked waits until n reservers are parked on w.
func waitParked(t *testing.T, w *Window, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for w.Waiters() != n {
		if time.Now().After(deadline) {
			t.Fatalf("Waiters() = %d, want %d parked reservers", w.Waiters(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// reserveAsync starts a reserver for one ready task and returns a channel
// closed once it has entered the window.
func reserveAsync(w *Window, worker int) <-chan struct{} {
	admitted := make(chan struct{})
	go func() {
		enter(w, worker, nil)
		close(admitted)
	}()
	return admitted
}

// TestParkAndWake forces the slow path: with a window of one, a second
// reserver must park and a Started must wake it. Only Parks counts; the
// credit-cache counters of Stats stay zero.
func TestParkAndWake(t *testing.T) {
	w := New(KindAuto, 1, 2)
	enter(w, 0, nil)
	got := reserveAsync(w, 1)
	// The reserver must park: the window is full.
	select {
	case <-got:
		t.Fatal("second reserver passed a full window")
	case <-time.After(50 * time.Millisecond):
	}
	w.Started(0)
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("Started did not wake the parked reserver")
	}
	w.Started(1)
	if st := w.Stats(); st != (Stats{Parks: 1}) {
		t.Errorf("Stats() = %+v, want exactly one park", st)
	}
	if got := w.Open(); got != 0 {
		t.Errorf("Open() = %d, want 0", got)
	}
}

// TestStartedUnknownWorkerWakes: a start reported with no worker (-1, as
// the runtime passes when the starter holds no token) frees the slot and
// wakes a parked reserver like any other start.
func TestStartedUnknownWorkerWakes(t *testing.T) {
	w := New(KindAuto, 1, 2)
	enter(w, 0, nil)
	got := reserveAsync(w, 1)
	waitParked(t, w, 1)
	w.Started(-1)
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("Started(-1) did not wake the parked reserver")
	}
	w.Started(-1)
	if w.Open() != 0 || w.Waiters() != 0 {
		t.Errorf("Open=%d Waiters=%d after the drain, want 0 0", w.Open(), w.Waiters())
	}
}

// TestOverdrawParksReserverUntilUnderLimit pins the bound under cascade
// overdraw: while unreserved (cascade) entries hold occupancy at or above
// the limit, a start must not admit a parked reserver. Only once occupancy
// drops below the limit may a start admit it.
func TestOverdrawParksReserverUntilUnderLimit(t *testing.T) {
	w := New(KindAuto, 2, 2)
	// A dependency cascade readies 4 unreserved tasks: open=4, limit=2.
	w.Entered(4)
	if got := w.Credits(); got != -2 {
		t.Fatalf("overdrawn Credits() = %d, want -2", got)
	}
	admitted := reserveAsync(w, 0)
	waitParked(t, w, 1)
	// Two starts bring occupancy down to the limit (4 → 2); neither may
	// admit the parked reserver.
	w.Started(0)
	w.Started(0)
	select {
	case <-admitted:
		t.Fatal("reserver admitted while occupancy was at or above the bound")
	case <-time.After(50 * time.Millisecond):
	}
	if got := w.Waiters(); got != 1 {
		t.Errorf("Waiters() = %d while occupancy is at the bound, want 1", got)
	}
	// The next start frees a real slot.
	w.Started(0)
	select {
	case <-admitted:
	case <-time.After(5 * time.Second):
		t.Fatal("reserver not admitted after occupancy fell below the bound")
	}
	// Retire the last cascade entry and the reserver's own entry.
	w.Started(0)
	w.Started(0)
	if w.Open() != 0 || w.Waiters() != 0 {
		t.Errorf("Open=%d Waiters=%d after the drain, want 0 0", w.Open(), w.Waiters())
	}
}

// TestStartedWakesEveryParkedReserver parks several reservers on a full
// one-slot window and then lets a single start cascade: each admitted
// reserver's task starts in turn. Every reserver must get through (the
// broadcast strands none), and each must have parked exactly once.
func TestStartedWakesEveryParkedReserver(t *testing.T) {
	const parked = 8
	w := New(KindAuto, 1, 4)
	enter(w, 0, nil)
	var done sync.WaitGroup
	for i := 0; i < parked; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			enter(w, i%4, nil)
			// Chain the burst: each resumed reserver's task starts,
			// freeing the slot for the next parked reserver.
			w.Started(i % 4)
		}(i)
	}
	waitParked(t, w, parked)
	w.Started(0)
	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatalf("%d reservers still parked after the burst", w.Waiters())
	}
	if got := w.Stats().Parks; got != parked {
		t.Errorf("Parks = %d, want %d", got, parked)
	}
	if w.Open() != 0 || w.Waiters() != 0 {
		t.Errorf("Open=%d Waiters=%d after the burst, want 0 0", w.Open(), w.Waiters())
	}
}

// TestWindowIntrospection pins the monitor accessors the runtime's leak
// checks read: Limit is the configured bound, Credits equals Limit - Open
// (negative while cascade entries overdraw), EnteredReserved counts one
// entry like Entered(1), and Waiters counts a reserver parked on a full
// window until a Started wakes it.
func TestWindowIntrospection(t *testing.T) {
	const limit = 4
	w := New(KindAuto, limit, 2)
	quiescent := func(when string) {
		t.Helper()
		if got, want := w.Credits(), int64(limit)-w.Open(); got != want {
			t.Errorf("%s: Credits() = %d, want Limit-Open = %d", when, got, want)
		}
		if got := w.Waiters(); got != 0 {
			t.Errorf("%s: Waiters() = %d, want 0", when, got)
		}
	}
	if got := w.Limit(); got != limit {
		t.Fatalf("Limit() = %d, want %d", got, limit)
	}
	quiescent("fresh")
	w.Entered(limit + 2) // a cascade overdraws the bound
	quiescent("overdrawn")
	if got := w.Credits(); got != -2 {
		t.Errorf("overdrawn Credits() = %d, want -2", got)
	}
	for i := 0; i < limit+2; i++ {
		w.Started(i % 2)
	}
	quiescent("drained")

	// Fill the window, half through each entry call, so the next reserver
	// parks.
	for i := 0; i < limit; i++ {
		if _, prepaid := w.Reserve(0, nil); prepaid {
			t.Fatal("Reserve prepaid a slot")
		}
		if i%2 == 0 {
			w.EnteredReserved()
		} else {
			w.Entered(1)
		}
	}
	if got := w.Open(); got != limit {
		t.Fatalf("Open() = %d after %d entries, want %d", got, limit, limit)
	}
	got := reserveAsync(w, 1)
	waitParked(t, w, 1)
	w.Started(0)
	<-got
	for i := 0; i < limit; i++ {
		w.Started(i % 2)
	}
	quiescent("woken and drained")
}

// recordingYielder counts the token round-trips of parked reservers.
type recordingYielder struct {
	yields, acquires atomic.Int64
}

func (y *recordingYielder) Yield(worker int) { y.yields.Add(1) }
func (y *recordingYielder) Acquire() int     { y.acquires.Add(1); return 7 }

// TestYielderRoundTrip checks a parked reserver yields its worker token
// exactly once, reacquires exactly once and returns the reacquired worker,
// and that fast-path reserves perform no round-trip at all.
func TestYielderRoundTrip(t *testing.T) {
	w := New(KindAuto, 1, 2)
	y := &recordingYielder{}
	if got := enter(w, 0, y); got != 0 {
		t.Errorf("fast-path Reserve returned worker %d, want 0", got)
	}
	if y.yields.Load() != 0 || y.acquires.Load() != 0 {
		t.Fatal("fast-path Reserve performed a token round-trip")
	}
	done := make(chan int)
	go func() { done <- enter(w, 1, y) }()
	waitParked(t, w, 1)
	w.Started(0)
	if got := <-done; got != 7 {
		t.Errorf("parked Reserve returned worker %d, want the reacquired 7", got)
	}
	if y.yields.Load() != 1 || y.acquires.Load() != 1 {
		t.Errorf("parked Reserve: %d yields, %d acquires; want 1 and 1",
			y.yields.Load(), y.acquires.Load())
	}
}
