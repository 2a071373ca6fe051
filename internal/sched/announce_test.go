package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Announce tests: every pool must deliver exactly n copies of an announced
// item — each copy consumed exactly once, whether it lands on a free token
// (spawn path) or queues for a busy worker to pop at Finish — and the pool
// must quiesce afterwards. Announce is the worksharing invitation
// primitive: copies are invitations, not new work, so delivery and
// conservation are the whole contract (order and placement are not).

// announcePools enumerates the Queue implementations under test.
func announcePools() []struct {
	name string
	mk   func(workers int, spawn func(item, worker int)) Queue[int]
} {
	return []struct {
		name string
		mk   func(workers int, spawn func(item, worker int)) Queue[int]
	}{
		{"stealing", func(w int, s func(int, int)) Queue[int] { return NewStealing(w, s) }},
		{"central", func(w int, s func(int, int)) Queue[int] { return New(w, FIFO, s) }},
	}
}

func waitQuiesce(t *testing.T, name string, q Queue[int]) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !q.Idle() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: pool did not quiesce (queued=%d)", name, q.QueueLen())
		}
		time.Sleep(100 * time.Microsecond)
	}
	if ql := q.QueueLen(); ql != 0 {
		t.Fatalf("%s: QueueLen = %d at quiescence", name, ql)
	}
}

// TestAnnounceIdlePool: announcing to an all-free pool starts copies on
// free tokens (and queues the overflow beyond the worker count), and every
// copy runs exactly once.
func TestAnnounceIdlePool(t *testing.T) {
	const workers, copies = 4, 7
	for _, p := range announcePools() {
		var ran atomic.Int64
		var wg sync.WaitGroup
		wg.Add(copies)
		var q Queue[int]
		q = p.mk(workers, func(item, worker int) {
			for {
				if item != 42 {
					t.Errorf("%s: ran item %d, only 42 was announced", p.name, item)
				}
				ran.Add(1)
				wg.Done()
				next, ok := q.Finish(worker)
				if !ok {
					return
				}
				item = next
			}
		})
		q.Announce(42, copies, -1)
		wg.Wait()
		waitQuiesce(t, p.name, q)
		if got := ran.Load(); got != copies {
			t.Fatalf("%s: %d copies ran, want %d", p.name, got, copies)
		}
	}
}

// TestAnnounceBusyPool: with every token occupied, announced copies queue
// and are drained through Finish once the occupants complete — no copy is
// lost to a wakeup race and none runs twice. The announcement here rides
// mid-flight workers exactly the way a worksharing region invites a busy
// fleet.
func TestAnnounceBusyPool(t *testing.T) {
	const workers, copies = 4, 6
	for _, p := range announcePools() {
		gate := make(chan struct{})
		var occupied sync.WaitGroup
		occupied.Add(workers)
		var ran atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers + copies)
		var q Queue[int]
		q = p.mk(workers, func(item, worker int) {
			for {
				if item < workers {
					occupied.Done()
					<-gate
				} else {
					ran.Add(1)
				}
				wg.Done()
				next, ok := q.Finish(worker)
				if !ok {
					return
				}
				item = next
			}
		})
		for i := 0; i < workers; i++ {
			q.Submit(i, -1)
		}
		occupied.Wait()
		q.Announce(workers, copies, 2)
		close(gate)
		wg.Wait()
		waitQuiesce(t, p.name, q)
		if got := ran.Load(); got != copies {
			t.Fatalf("%s: %d queued copies ran, want %d", p.name, got, copies)
		}
	}
}

// TestAnnounceSpread: on the stealing pool, queued announcement copies must
// not pile onto the announcer's deque — they spread across the workers so
// each idle worker finds its invitation without a steal. The pool is frozen
// (every token occupied behind a gate) while the placement is inspected
// directly; which worker ultimately *consumes* each copy is timing-dependent
// and deliberately not asserted.
func TestAnnounceSpread(t *testing.T) {
	const workers = 4
	var q Queue[int]
	gate := make(chan struct{})
	var occupied, wg sync.WaitGroup
	st := NewStealing(workers, func(item, worker int) {
		for {
			if item < workers {
				occupied.Done()
				<-gate
			}
			wg.Done()
			next, ok := q.Finish(worker)
			if !ok {
				return
			}
			item = next
		}
	})
	q = st
	occupied.Add(workers)
	wg.Add(workers * 2)
	for i := 0; i < workers; i++ {
		q.Submit(i, -1)
	}
	occupied.Wait()
	q.Announce(workers, workers, 0)
	nonEmpty := 0
	for i := range st.shards {
		if st.shards[i].ilen.Load() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Errorf("stealing: %d spread copies landed on %d inbox(es); announcement has submitter locality", workers, nonEmpty)
	}
	close(gate)
	wg.Wait()
	waitQuiesce(t, "stealing", q)
}
