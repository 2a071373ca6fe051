// Package throttle implements the runtime's bounded lookahead window: a
// cap on the number of dependency-ready tasks awaiting execution
// (core.Config.ThrottleOpenTasks, the paper's §III discussion of bounding
// how far task instantiation may run ahead of execution).
//
// A submitter that would push the window past its bound blocks — yielding
// its worker token so the blocked core still runs useful work — until
// started tasks free window slots. Only dependency-ready tasks count
// toward the window: a ready task needs nothing but a worker token, so the
// window always drains and a blocked submitter always wakes. (Counting all
// instantiated tasks would deadlock nested weak programs, where a task can
// be dependency-blocked on fragments that release only when its blocked
// submitter's own body finishes.)
//
// The window is an atomic occupancy counter, one mutex and one condition
// variable. Reserve admits on the counter's fast path and cond-waits above
// the bound; every Started broadcasts under the mutex. The check and the
// entry are separate steps, so concurrent reservers may each pass the
// check before any of them enters: occupancy through reservations stays
// within limit + (concurrent reservers - 1). Dependency cascades enter
// without reserving and may overdraw the bound further; a reserver then
// waits until starts bring occupancy back under it.
package throttle

import (
	"sync"
	"sync/atomic"
)

// Kind is the window selector New still accepts, because the benchmark's
// throttle drive (bench/drives.go) passes one. There is one window, so
// KindAuto is the only kind.
type Kind uint8

// KindAuto builds the one window. (Virtual mode is a sequential simulation
// and never blocks submitters, so it constructs no window at all.)
const KindAuto Kind = 0

// Yielder is the worker-token round-trip a blocking reserver performs: it
// releases its token while parked (so the core runs other ready tasks) and
// reacquires one before resuming. The runtime passes its ready pool
// (sched.Stealing implements both methods); standalone drivers — benchmarks,
// the tests — may pass nil to park without a token round-trip.
type Yielder interface {
	// Yield releases the worker token while its holder blocks.
	Yield(worker int)
	// Acquire blocks until a worker token is available and returns it.
	Acquire() int
}

// Stats are diagnostic counters of a Window.
type Stats struct {
	// Parks counts reservers that found the window full and cond-waited.
	Parks int64
	// Borrows, Steals, Handoffs and Reparks counted the credit-cache
	// traffic of a token-bucket window the runtime no longer has; they
	// always read 0. They stay because the benchmark's traced pass
	// (bench/harness.go) still reports them as throttle.borrows,
	// throttle.steals, throttle.handoffs and throttle.reparks.
	Borrows, Steals, Handoffs, Reparks int64
}

// Window is the admission window.
//
// The accounting protocol: every task entering the window (becoming
// dependency-ready) is reported exactly once by Entered (or
// EnteredReserved), and every counted task leaving the window (starting
// execution) is reported exactly once by Started. Entered may overdraw the
// bound: dependency cascades ready tasks regardless of the window, and
// only submitters block.
type Window struct {
	limit   int64
	open    atomic.Int64
	mu      sync.Mutex
	cond    sync.Cond
	parks   atomic.Int64
	waiting atomic.Int64
}

// New returns a window over limit slots. Only limit is read: kind and
// workers stay in the signature for the benchmark's throttle drive
// (bench/drives.go).
func New(kind Kind, limit, workers int) *Window {
	if limit <= 0 {
		panic("throttle: limit must be positive")
	}
	w := &Window{limit: int64(limit)}
	w.cond.L = &w.mu
	return w
}

// Reserve blocks until the window has room for one more ready task,
// yielding worker through y (if non-nil) while parked. It returns the
// worker the caller now holds (reacquired if it parked). The second result
// is always false: a reservation prepays nothing, so the caller reports the
// task's entry with Entered once the task is ready, and reports nothing if
// it deferred on its dependencies.
func (w *Window) Reserve(worker int, y Yielder) (int, bool) {
	if w.open.Load() < w.limit {
		return worker, false
	}
	w.parks.Add(1)
	if y != nil {
		y.Yield(worker)
	}
	w.mu.Lock()
	w.waiting.Add(1)
	for w.open.Load() >= w.limit {
		w.cond.Wait()
	}
	w.waiting.Add(-1)
	w.mu.Unlock()
	if y != nil {
		worker = y.Acquire()
	}
	return worker, false
}

// Entered records n tasks entering the window. It never blocks and may
// overdraw the bound.
func (w *Window) Entered(n int64) { w.open.Add(n) }

// EnteredReserved records one task entering the window; it is Entered(1),
// kept because the benchmark's throttle drive (bench/drives.go) still
// branches on Reserve's always-false result.
func (w *Window) EnteredReserved() { w.open.Add(1) }

// Started records one counted task leaving the window (it began executing)
// and wakes the parked reservers, which recheck the bound. worker is not
// read; callers pass the starting worker, or -1 if unknown.
func (w *Window) Started(worker int) {
	w.open.Add(-1)
	w.mu.Lock()
	w.cond.Broadcast()
	w.mu.Unlock()
}

// Open returns the current window occupancy (ready, unstarted tasks).
func (w *Window) Open() int64 { return w.open.Load() }

// Limit returns the configured window bound.
func (w *Window) Limit() int { return int(w.limit) }

// Credits returns the free slots under the bound, Limit() - Open(). It is
// negative while cascade entries overdraw the bound.
func (w *Window) Credits() int64 { return w.limit - w.open.Load() }

// Waiters returns the number of reservers currently parked in Reserve.
// Monitors use it with Credits: a parked reserver and a free slot
// coexisting past a transient wake-up window is a lost wakeup.
func (w *Window) Waiters() int64 { return w.waiting.Load() }

// Stats returns a snapshot of the diagnostic counters.
func (w *Window) Stats() Stats { return Stats{Parks: w.parks.Load()} }
