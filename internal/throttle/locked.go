package throttle

import (
	"sync"
	"sync/atomic"
)

// locked is the reference window: an atomic occupancy counter, one mutex,
// and one condition variable. Reserve spins on the counter's fast path and
// cond-waits above the bound; every Started broadcasts under the mutex, so
// all throttled workers serialize on one lock — exactly the behavior the
// runtime shipped before the sharded window, preserved for differential
// testing and contention A/Bs.
type locked struct {
	limit   int64
	open    atomic.Int64
	mu      sync.Mutex
	cond    *sync.Cond
	parks   atomic.Int64
	waiting atomic.Int64
}

// NewLocked creates the mutex+cond reference window with the given bound.
func NewLocked(limit int) Window {
	if limit <= 0 {
		panic("throttle: limit must be positive")
	}
	l := &locked{limit: int64(limit)}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *locked) Reserve(worker int, y Yielder) (int, bool) {
	if l.open.Load() < l.limit {
		return worker, false
	}
	l.parks.Add(1)
	if y != nil {
		y.Yield(worker)
	}
	l.mu.Lock()
	l.waiting.Add(1)
	for l.open.Load() >= l.limit {
		l.cond.Wait()
	}
	l.waiting.Add(-1)
	l.mu.Unlock()
	if y != nil {
		worker = y.Acquire()
	}
	return worker, false
}

func (l *locked) Entered(n int64) { l.open.Add(n) }

// EnteredReserved never runs in practice — Reserve never prepays — but the
// contract still requires it to count the entry.
func (l *locked) EnteredReserved() { l.open.Add(1) }

func (l *locked) Refund(worker int) {}

func (l *locked) Started(worker int) {
	l.open.Add(-1)
	l.mu.Lock()
	l.cond.Broadcast()
	l.mu.Unlock()
}

func (l *locked) Open() int64 { return l.open.Load() }

func (l *locked) Limit() int { return int(l.limit) }

// Credits reports the free slots under the bound. The locked window keeps
// no per-worker caches and Reserve prepays nothing, so this is exactly
// limit - open (negative while cascades overdraw).
func (l *locked) Credits() int64 { return l.limit - l.open.Load() }

// Waiters reports the reservers currently cond-waiting above the bound.
func (l *locked) Waiters() int64 { return l.waiting.Load() }

func (l *locked) Stats() Stats { return Stats{Parks: l.parks.Load()} }
