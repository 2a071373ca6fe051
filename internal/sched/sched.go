// Package sched provides the execution substrate of the runtime: a fixed
// pool of admission tokens (one per simulated core), the work-stealing
// ready pool, and token hand-off.
//
// The runtime model is goroutine-per-task gated by tokens: a task body runs
// only on a goroutine that holds a token, so at most Workers task bodies
// execute at once. A task waiting in taskwait first runs the queued
// descendants on its own worker's deque itself, on its own token (PopOwn);
// only when none is left does it block and yield its token (the paper's
// observation that a taskwait forces the runtime to keep the task context
// alive, §IV, maps to the blocked goroutine). The blocked task gets a token
// back through Acquire's waiter list, which every release point serves
// before starting fresh queued work.
//
// Stealing is the one ready pool: per-worker Chase-Lev deques with
// lock-free LIFO self-pop and CAS-based FIFO stealing (the Cilk
// discipline), plus a per-worker creator lane that starts tasks which only
// instantiate children in program order (SubmitCreator). It has no
// pool-wide mutex: per-worker shards, a lock-free token free-list, and a
// Dekker-style idle protocol — a submitter publishes its item and then
// rechecks the token list, a retiring worker publishes its token and then
// rechecks the queued count and the waiter count. Under sequential
// consistency (Go's atomics) at least one side of any race observes the
// other's publication, so a queued item and a free token can never coexist
// at quiescence. The package's tests hold it to the admission invariants —
// token conservation, no lost wakeups, waiter priority at release points,
// and Idle() exact at quiescence — against a central single-lock FIFO
// queue driven over identical schedules.
package sched

// Probe is one instantaneous observation of a pool's admission state, for
// external monitors (the runtime's stall watchdog). The counters are read
// independently — a probe is not a consistent snapshot — so a monitor must
// only act on a signature that persists across many probes. A correct pool
// never lets Queued > 0 (or Waiters > 0) coexist with FreeTokens > 0 beyond
// a transient admission window: the Dekker publish-then-recheck protocol
// matches them. A monitor that sees the pairing persist with no dispatch
// progress is looking at a lost wakeup.
type Probe struct {
	// Queued is the number of queued (not running) items.
	Queued int
	// Creators is how many of those sit in a creator lane (SubmitCreator).
	Creators int
	// FreeTokens is the number of worker tokens on the free pool.
	FreeTokens int
	// Waiters is the number of blocked Acquire calls.
	Waiters int
}
