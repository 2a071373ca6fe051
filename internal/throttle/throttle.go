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
// Two implementations share the Window contract and are driven over
// identical randomized schedules by the differential tests in this
// package:
//
//   - Locked: one mutex + condition variable. Every Started broadcast
//     serializes on the mutex, re-centralizing the contention the sharded
//     dependency engine and ready pool removed; kept as the reference.
//   - Sharded: a token-bucket admission window. The bound is a global
//     atomic credit balance; each worker caches a small batch of borrowed
//     credits so the common Reserve is one uncontended CAS on its own
//     cache line, and blocked submitters park on per-shard wait lists. A
//     Dekker-style publish-then-recheck protocol (the same idiom as the
//     sharded ready pool's idle protocol) closes the lost-wakeup window
//     between a parking submitter and a completion that frees slots.
package throttle

// Kind selects a Window implementation (New). The runtime always builds the
// sharded window; the locked one is the differential reference of this
// package's tests and the baseline rows of its contention matrix.
type Kind uint8

const (
	// KindAuto lets the runtime pick: the sharded token-bucket window in
	// real mode. (Virtual mode is a sequential simulation and never blocks
	// submitters, so it constructs no window at all.)
	KindAuto Kind = iota
	// KindLocked is the single mutex + condvar reference window.
	KindLocked
	// KindSharded is the sharded token-bucket window.
	KindSharded
)

// String returns the kind's name in benchmark and test labels.
func (k Kind) String() string {
	switch k {
	case KindLocked:
		return "locked"
	case KindSharded:
		return "sharded"
	}
	return "auto"
}

// Yielder is the worker-token round-trip a blocking reserver performs: it
// releases its token while parked (so the core runs other ready tasks) and
// reacquires one before resuming. The runtime passes its ready pool
// (sched.Stealing implements both methods); standalone drivers — benchmarks,
// the differential tests — may pass nil to park without a token round-trip.
type Yielder interface {
	// Yield releases the worker token while its holder blocks.
	Yield(worker int)
	// Acquire blocks until a worker token is available and returns it.
	Acquire() int
}

// Stats are diagnostic counters of a Window.
type Stats struct {
	// Parks counts reservers that exhausted the fast paths and parked
	// (cond-waited in the locked window, wait-listed in the sharded one).
	Parks int64
	// Borrows counts batch refills of a worker's credit cache from the
	// global balance (sharded only).
	Borrows int64
	// Steals counts credits taken from another worker's cache (sharded
	// only).
	Steals int64
	// Handoffs counts credits handed directly to a parked reserver by a
	// returner (sharded only): the woken reserver owns the credit outright
	// and resumes without re-contending the credit sources, so a burst of
	// completions wakes a burst of reservers with no retry traffic.
	Handoffs int64
	// Reparks counts reservers that woke without an attached credit, lost
	// the recheck race, and slept again (sharded only). Direct hand-off
	// exists to keep this at zero in the common case.
	Reparks int64
}

// Window is the admission-window contract between the runtime and a
// throttle implementation.
//
// The accounting protocol: every task entering the window (becoming
// dependency-ready) is reported exactly once — either by Entered, or by a
// preceding Reserve that returned prepaid=true followed by EnteredReserved
// — and every counted task leaving the window (starting execution) is
// reported exactly once by Started. A prepaid reservation whose task turns
// out not to be ready (it deferred on its dependencies) must be returned
// with Refund. Entered may overdraw the bound: dependency cascades ready
// tasks regardless of the window, and only submitters block.
type Window interface {
	// Reserve blocks until the window has room for one more ready task,
	// yielding worker through y (if non-nil) while parked. It returns the
	// worker the caller now holds (reacquired if it parked) and whether the
	// reservation prepaid a window slot: if true, the caller reports the
	// task's window entry with EnteredReserved (or returns the slot with
	// Refund if the task deferred); if false, with Entered.
	Reserve(worker int, y Yielder) (newWorker int, prepaid bool)
	// Entered records n tasks entering the window without a prepaid
	// reservation (dependency-cascade admissions, and every admission of
	// the locked window). It never blocks and may overdraw the bound.
	Entered(n int64)
	// EnteredReserved records a window entry paid for by a prepaid Reserve.
	EnteredReserved()
	// Refund returns a prepaid window slot whose task deferred on its
	// dependencies instead of entering the window.
	Refund(worker int)
	// Started records one counted task leaving the window (it began
	// executing) and wakes parked reservers the freed slot can admit.
	// worker is the starting worker (the sharded window returns the credit
	// to that worker's cache); -1 if unknown.
	Started(worker int)
	// Open returns the current window occupancy (ready, unstarted tasks).
	Open() int64
	// Limit returns the configured window bound.
	Limit() int
	// Credits returns the number of window slots currently free to admit
	// work: the global balance plus any per-worker credit caches, excluding
	// credits held in flight by reservers between Reserve and Entered. It
	// may be negative while cascade admissions overdraw the bound. At
	// quiescence (no open task, no reservation in flight) it equals
	// Limit() - Open() exactly — the runtime's leak checks assert this —
	// but under load the counters are read independently and the sum may be
	// instantaneously inconsistent.
	Credits() int64
	// Waiters returns the number of reservers currently parked in Reserve.
	// Monitors use it with Credits: a parked reserver and a free credit
	// coexisting past a transient handoff window is a lost wakeup.
	Waiters() int64
	// Stats returns a snapshot of the diagnostic counters.
	Stats() Stats
}

// New returns a window of the given kind over limit window slots for the
// given worker count. KindAuto resolves to the sharded window.
func New(kind Kind, limit, workers int) Window {
	if kind == KindLocked {
		return NewLocked(limit)
	}
	return NewSharded(limit, workers)
}
