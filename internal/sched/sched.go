// Package sched provides the execution substrate of the runtime: a fixed
// pool of admission tokens (one per simulated core), ready-pool
// implementations with configurable policy, and token hand-off.
//
// The runtime model is goroutine-per-task gated by tokens: a task body runs
// only on a goroutine that holds a token, so at most Workers task bodies
// execute at once. A task waiting in taskwait first runs the queued
// descendants on its own worker's queue itself, on its own token
// (HelpQueue); only when none is left does it block and yield its token (the
// paper's observation that a taskwait forces the runtime to keep the task
// context alive, §IV, maps to the blocked goroutine). How the blocked task
// gets a token back depends on the core runtime's Taskwait strategy: the
// parking reference re-acquires one through Acquire's waiter list (a full
// token round-trip per sync point), while the default continuation handoff
// re-submits the waiting task into these ready pools — it competes for a
// worker like any other item, may be stolen, and the worker that pulls it
// hands its token directly to the parked goroutine. The pools need no
// special case for this: a continuation is an ordinary queued item whose
// dispatch callback transfers the token instead of running a body.
//
// Two ready pools share the Queue contract, and the runtime picks one by
// policy:
//
//   - Stealing: per-worker Chase-Lev deques with lock-free LIFO self-pop
//     and CAS-based FIFO stealing (the Cilk discipline), plus a per-worker
//     creator lane that starts tasks which only instantiate children in
//     program order (CreatorQueue). The runtime's pool under the FIFO
//     policy, the default.
//   - Scheduler: a central single-lock queue with FIFO, LIFO, or Priority
//     discipline. LIFO and Priority are global orders over all ready items,
//     which is inherently central, so the runtime runs them here. In FIFO
//     mode it is the single-lock reference the differential, fairness and
//     contention tests compare Stealing against.
//
// Stealing replaces the pool-wide mutex with per-worker shards, a lock-free
// token free-list, and a Dekker-style idle protocol: a submitter publishes
// its item and then rechecks the token list, a retiring worker publishes its
// token and then rechecks the queued count and the waiter count. Under
// sequential consistency (Go's atomics) at least one side of any race
// observes the other's publication, so a queued item and a free token can
// never coexist at quiescence — the lost-wakeup window that Scheduler closes
// with its mutex. Both pools maintain the same admission invariants: token
// conservation, no lost wakeups, waiter priority at release points, and
// Idle() exact at quiescence; the differential tests in this package drive
// both over identical schedules to keep them aligned.
package sched

import (
	"container/heap"
	"sync"
)

// Policy selects the ready-queue discipline of the central Scheduler. The
// runtime also picks its pool by it: FIFO runs on Stealing, LIFO and
// Priority on the central Scheduler.
type Policy uint8

const (
	// FIFO dispatches ready tasks in arrival order (breadth-first).
	FIFO Policy = iota
	// LIFO dispatches the most recently readied task first (depth-first).
	LIFO
	// Priority dispatches the highest-priority ready task first, FIFO among
	// equal priorities (the OpenMP 4.5 priority clause). Requires a
	// Scheduler built with NewPriority.
	Priority
)

// String returns the policy's flag/table name.
func (p Policy) String() string {
	switch p {
	case LIFO:
		return "lifo"
	case Priority:
		return "priority"
	}
	return "fifo"
}

// Queue is the contract between the runtime and a ready-pool: admission of
// ready items, token-aware completion chaining, and token yield/reacquire
// for blocking constructs.
//
// from is the submitting worker, and the caller of Submit/SubmitBatch with
// an in-range from must be the goroutine currently holding that worker's
// token (-1, or any out-of-range value, when the caller holds none). The
// stealing pool relies on this ownership for its single-owner deque fast
// paths; the runtime satisfies it by construction, since a task submits
// children only while running on its worker.
type Queue[T any] interface {
	// Submit makes an item runnable. If a token is free the item starts
	// immediately on a new goroutine; otherwise it queues. Safe for
	// concurrent use, subject to the from-token rule above: an in-range
	// from asserts the caller holds that worker's token (the stealing pool
	// pushes onto that worker's deque lock-free, which is only safe
	// single-owner); callers holding no token must pass -1.
	Submit(item T, from int)
	// SubmitBatch makes several items runnable in one admission: tokens are
	// matched and goroutines spawned for as many items as have free tokens,
	// and the rest queue, all under a single lock acquisition. A dependency
	// release that readies many successors hands them over in one call
	// instead of one lock round-trip per edge. from follows the same
	// ownership rule as Submit.
	SubmitBatch(items []T, from int)
	// Announce publishes n copies of one item with no submitter locality:
	// free tokens are matched first (goroutine-per-copy, as Submit), and
	// the remaining copies are spread across the pool's shards instead of
	// landing on the announcing worker's queue, so idle workers on other
	// shards find them without a steal round-trip. Worksharing regions use
	// this to invite the fleet into a chunk-distributed body: each copy is
	// an invitation, not new work, so the same item may legitimately appear
	// n times. from follows the same ownership rule as Submit (it names the
	// announcing worker's token; the copies themselves are placed as if
	// external).
	Announce(item T, n, from int)
	// Finish is called by a runner that completed its item and still holds
	// worker — and only by that runner; the call consumes the token unless
	// ok is true. It returns the next item to run on this worker, if any;
	// otherwise the token is retired (to a blocked Acquire first — waiter
	// priority — then the free pool).
	Finish(worker int) (next T, ok bool)
	// Yield releases worker while its holder blocks (taskwait, taskgroup,
	// throttle); only the token's current holder may call it, and the
	// holder must reacquire via Acquire before touching per-worker state
	// again. The token is immediately redeployed.
	Yield(worker int)
	// Acquire blocks until a worker token is available and returns it.
	// Safe for any goroutine; release points prefer blocked Acquires over
	// fresh queued work.
	Acquire() int
	// Workers returns the number of worker tokens. Constant; safe always.
	Workers() int
	// Idle reports whether no items are queued and all tokens are free.
	// Exact only at quiescence (no operation in flight).
	Idle() bool
	// QueueLen returns the number of queued (not running) items. May be
	// momentarily stale in the stealing pool; exact at quiescence.
	QueueLen() int
}

// CreatorQueue is the optional Queue extension for items that should start
// in program order: tasks that touch no data themselves and only
// instantiate children (the runtime routes tasks whose depend clause is
// non-empty and all-weak here — §VI of the paper). Run newest-first, as a
// LIFO deque would, such creators instantiate their whole subtrees under
// predecessors that do not exist yet, so every child blocks; run in
// program order, each subtree finds its predecessors already finished.
// SubmitCreator admits like Submit — from follows the same ownership rule —
// but queues the item behind the submitting worker's other work, in
// depth-first program order among creators, and ahead of that other work
// for thieves. Only the Stealing pool implements it; the central Scheduler
// keeps its global order.
type CreatorQueue[T any] interface {
	Queue[T]
	SubmitCreator(item T, from int)
}

// HelpQueue is the optional Queue extension behind a waiting task's help
// step: the holder of worker's token takes the newest item of its own
// queue to run on its own goroutine instead of blocking, and puts back an
// item it declines. PopOwn never steals and never reads the creator lane or
// the inbox. PutBack queues the item at the bottom again and rechecks the
// free tokens, so a declined item never sits beside a free token. Both are
// owner-only, like a deque push. Only the Stealing pool implements it; the
// central Scheduler's waits block without helping.
type HelpQueue[T any] interface {
	Queue[T]
	PopOwn(worker int) (item T, ok bool)
	PutBack(item T, worker int)
}

// Probe is one instantaneous observation of a pool's admission state, for
// external monitors (the runtime's stall watchdog). The three counters are
// read independently — a probe is not a consistent snapshot — so a monitor
// must only act on a signature that persists across many probes.
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

// Prober is implemented by pools that can report a Probe. A correct pool
// never lets Queued > 0 (or Waiters > 0) coexist with FreeTokens > 0 beyond
// a transient admission window: the Dekker publish-then-recheck protocol
// matches them. A monitor that sees the pairing persist with no dispatch
// progress is looking at a lost wakeup.
type Prober interface {
	Probe() Probe
}

// prioItem pairs a queued item with its priority and a FIFO tie-break.
type prioItem[T any] struct {
	item T
	prio int64
	seq  int64
}

type prioHeap[T any] []prioItem[T]

func (h prioHeap[T]) Len() int { return len(h) }
func (h prioHeap[T]) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h prioHeap[T]) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *prioHeap[T]) Push(x any)   { *h = append(*h, x.(prioItem[T])) }
func (h *prioHeap[T]) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Scheduler multiplexes ready items of type T over a fixed set of worker
// tokens through one central queue. spawn is invoked on a fresh goroutine
// whenever a queued item is matched with a free token; runners that finish
// an item call Finish to pick up more work or return their token.
type Scheduler[T any] struct {
	mu      sync.Mutex
	queue   []T
	pq      prioHeap[T]
	prio    func(T) int64
	seq     int64
	policy  Policy
	free    []int
	waiters []chan int // blocked Acquire calls (taskwait resumes)
	spawn   func(item T, worker int)
	workers int
}

var _ Queue[int] = (*Scheduler[int])(nil)

// New creates a central scheduler with the given number of worker tokens.
// policy must be FIFO or LIFO; use NewPriority for the Priority policy.
func New[T any](workers int, policy Policy, spawn func(item T, worker int)) *Scheduler[T] {
	if policy == Priority {
		panic("sched: Priority policy requires NewPriority (a priority extractor)")
	}
	return newScheduler(workers, policy, spawn, nil)
}

// NewPriority creates a central scheduler that dispatches the
// highest-priority queued item first, FIFO among equal priorities. prio
// extracts an item's priority.
func NewPriority[T any](workers int, spawn func(item T, worker int), prio func(T) int64) *Scheduler[T] {
	if prio == nil {
		panic("sched: NewPriority requires a priority extractor")
	}
	return newScheduler(workers, Priority, spawn, prio)
}

func newScheduler[T any](workers int, policy Policy, spawn func(item T, worker int), prio func(T) int64) *Scheduler[T] {
	if workers < 1 {
		panic("sched: need at least one worker")
	}
	s := &Scheduler[T]{policy: policy, spawn: spawn, prio: prio, workers: workers}
	for i := workers - 1; i >= 0; i-- {
		s.free = append(s.free, i)
	}
	return s
}

// Workers returns the number of worker tokens.
func (s *Scheduler[T]) Workers() int { return s.workers }

// Submit makes an item runnable. If a token is free the item starts
// immediately on a new goroutine; otherwise it queues. from is ignored by
// the central queue.
func (s *Scheduler[T]) Submit(item T, from int) {
	s.mu.Lock()
	if len(s.free) > 0 {
		w := s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		s.mu.Unlock()
		go s.spawn(item, w)
		return
	}
	s.push(item)
	s.mu.Unlock()
}

// SubmitBatch makes every item runnable under one lock acquisition: items
// start on free tokens first (goroutine-per-item, as Submit), the rest
// queue according to policy.
func (s *Scheduler[T]) SubmitBatch(items []T, from int) {
	if len(items) == 0 {
		return
	}
	s.mu.Lock()
	i := 0
	for ; i < len(items) && len(s.free) > 0; i++ {
		w := s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		go s.spawn(items[i], w)
	}
	for ; i < len(items); i++ {
		s.push(items[i])
	}
	s.mu.Unlock()
}

// Announce publishes n copies of item: free tokens are matched first, the
// rest queue according to policy. The central queue has no shards, so
// "spread" degenerates to the one queue; the contract's no-locality clause
// is satisfied trivially.
func (s *Scheduler[T]) Announce(item T, n, from int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	for ; n > 0 && len(s.free) > 0; n-- {
		w := s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		go s.spawn(item, w)
	}
	for ; n > 0; n-- {
		s.push(item)
	}
	s.mu.Unlock()
}

// push queues an item according to policy. Caller holds mu.
func (s *Scheduler[T]) push(item T) {
	if s.prio != nil {
		s.seq++
		heap.Push(&s.pq, prioItem[T]{item: item, prio: s.prio(item), seq: s.seq})
		return
	}
	s.queue = append(s.queue, item)
}

// pop removes the next item according to policy. Caller holds mu and has
// checked queuedLocked() > 0.
func (s *Scheduler[T]) pop() T {
	if s.prio != nil {
		return heap.Pop(&s.pq).(prioItem[T]).item
	}
	var item T
	if s.policy == LIFO {
		item = s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
	} else {
		item = s.queue[0]
		s.queue = s.queue[1:]
	}
	return item
}

func (s *Scheduler[T]) queuedLocked() int {
	if s.prio != nil {
		return len(s.pq)
	}
	return len(s.queue)
}

// Finish is called by a runner that completed its item and still holds
// worker w. A blocked Acquire call (a resuming taskwait, preferred because
// it holds a live stack mid-execution) wins the token over fresh queued
// work; otherwise the next queued item is returned to run on this worker,
// and failing that the token retires to the pool.
func (s *Scheduler[T]) Finish(worker int) (next T, ok bool) {
	var zero T
	s.mu.Lock()
	if len(s.waiters) > 0 {
		ch := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.mu.Unlock()
		ch <- worker
		return zero, false
	}
	if s.queuedLocked() > 0 {
		item := s.pop()
		s.mu.Unlock()
		return item, true
	}
	s.free = append(s.free, worker)
	s.mu.Unlock()
	return zero, false
}

// Yield releases worker w while its holder blocks (taskwait). The token is
// immediately redeployed: to a blocked Acquire, to a queued item, or to the
// free pool.
func (s *Scheduler[T]) Yield(worker int) {
	s.mu.Lock()
	if len(s.waiters) > 0 {
		ch := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.mu.Unlock()
		ch <- worker
		return
	}
	if s.queuedLocked() > 0 {
		item := s.pop()
		s.mu.Unlock()
		go s.spawn(item, worker)
		return
	}
	s.free = append(s.free, worker)
	s.mu.Unlock()
}

// Acquire blocks until a worker token is available and returns it. Used by
// taskwait resumption and by the runtime's entry goroutine.
func (s *Scheduler[T]) Acquire() int {
	s.mu.Lock()
	if len(s.free) > 0 {
		w := s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		s.mu.Unlock()
		return w
	}
	ch := make(chan int, 1)
	s.waiters = append(s.waiters, ch)
	s.mu.Unlock()
	return <-ch
}

// Idle reports whether no items are queued and all tokens are free — i.e.
// the system is quiescent. Only meaningful when the caller otherwise knows
// no runner is active.
func (s *Scheduler[T]) Idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queuedLocked() == 0 && len(s.free) == s.workers && len(s.waiters) == 0
}

// QueueLen returns the current ready-queue length (diagnostics).
func (s *Scheduler[T]) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queuedLocked()
}

// Probe returns an instantaneous observation of the admission state. The
// central scheduler reads all three counters under its one lock, so the
// snapshot is consistent (unlike the stealing pool's).
func (s *Scheduler[T]) Probe() Probe {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Probe{
		Queued:     s.queuedLocked(),
		FreeTokens: len(s.free),
		Waiters:    len(s.waiters),
	}
}
