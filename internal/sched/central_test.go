package sched

import "sync"

// The central single-lock FIFO queue: the reference the differential,
// fairness, announce and contention tests of this package hold the
// stealing pool against. It keeps the same admission invariants — token
// conservation, no lost wakeups, waiter priority at release points, Idle()
// exact at quiescence — by doing everything under one mutex, which is the
// lost-wakeup window Stealing closes with its Dekker protocol instead.

// Queue is the admission contract both pools implement, so one test body
// drives either: Submit/SubmitBatch/Announce admit ready items, Finish
// chains a runner to its next item or retires its token, Yield and Acquire
// release and reacquire a token around a blocking wait. The from-token
// rule and per-method semantics are documented on Stealing's methods.
type Queue[T any] interface {
	Submit(item T, from int)
	SubmitBatch(items []T, from int)
	Announce(item T, n, from int)
	Finish(worker int) (next T, ok bool)
	Yield(worker int)
	Acquire() int
	Workers() int
	Idle() bool
	QueueLen() int
}

var (
	_ Queue[int] = (*Stealing[int])(nil)
	_ Queue[int] = (*Scheduler[int])(nil)
)

// testPool names one Queue implementation under test.
type testPool struct {
	name string
	mk   func(workers int, spawn func(item, worker int)) Queue[int]
}

// testPools are the pools every shared-contract test runs: the stealing
// pool and its central reference.
var testPools = []testPool{
	{"stealing", func(w int, s func(int, int)) Queue[int] { return NewStealing(w, s) }},
	{"central", func(w int, s func(int, int)) Queue[int] { return newCentral(w, s) }},
}

// Scheduler multiplexes ready items of type T over a fixed set of worker
// tokens through one central FIFO queue. spawn is invoked on a fresh
// goroutine whenever a queued item is matched with a free token; runners
// that finish an item call Finish to pick up more work or return their
// token.
type Scheduler[T any] struct {
	mu      sync.Mutex
	queue   []T
	free    []int
	waiters []chan int // blocked Acquire calls (taskwait resumes)
	spawn   func(item T, worker int)
	workers int
}

// newCentral creates a central FIFO scheduler with the given number of
// worker tokens.
func newCentral[T any](workers int, spawn func(item T, worker int)) *Scheduler[T] {
	if workers < 1 {
		panic("sched: need at least one worker")
	}
	s := &Scheduler[T]{spawn: spawn, workers: workers}
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
	s.queue = append(s.queue, item)
	s.mu.Unlock()
}

// SubmitBatch makes every item runnable under one lock acquisition: items
// start on free tokens first (goroutine-per-item, as Submit), the rest
// queue.
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
	s.queue = append(s.queue, items[i:]...)
	s.mu.Unlock()
}

// Announce publishes n copies of item: free tokens are matched first, the
// rest queue. The central queue has no shards, so "spread" degenerates to
// the one queue.
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
		s.queue = append(s.queue, item)
	}
	s.mu.Unlock()
}

// pop removes the oldest queued item. Caller holds mu and has checked the
// queue is non-empty.
func (s *Scheduler[T]) pop() T {
	item := s.queue[0]
	s.queue = s.queue[1:]
	return item
}

// Finish is called by a runner that completed its item and still holds
// worker w. A blocked Acquire call wins the token over fresh queued work;
// otherwise the next queued item is returned to run on this worker, and
// failing that the token retires to the pool.
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
	if len(s.queue) > 0 {
		item := s.pop()
		s.mu.Unlock()
		return item, true
	}
	s.free = append(s.free, worker)
	s.mu.Unlock()
	return zero, false
}

// Yield releases worker w while its holder blocks. The token is
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
	if len(s.queue) > 0 {
		item := s.pop()
		s.mu.Unlock()
		go s.spawn(item, worker)
		return
	}
	s.free = append(s.free, worker)
	s.mu.Unlock()
}

// Acquire blocks until a worker token is available and returns it.
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

// Idle reports whether no items are queued and all tokens are free.
func (s *Scheduler[T]) Idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue) == 0 && len(s.free) == s.workers && len(s.waiters) == 0
}

// QueueLen returns the current ready-queue length.
func (s *Scheduler[T]) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}
