package sched

import (
	"fmt"
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

// TestAnnounceNeighbourOrder freezes a four-worker stealing pool and
// announces from worker 2: the queued copies land on the other workers'
// inboxes in the order 3, 0, 1, 3, 0, … — the announcer's right-hand
// neighbour first, wrapping around — and never on the announcer's own
// inbox or deque.
func TestAnnounceNeighbourOrder(t *testing.T) {
	const workers = 4
	for _, c := range []struct {
		n    int
		want [workers]int64
	}{
		{1, [workers]int64{0, 0, 0, 1}},
		{3, [workers]int64{1, 1, 0, 1}},
		{5, [workers]int64{2, 1, 0, 2}},
	} {
		s := NewStealing(workers, func(item, worker int) {
			t.Errorf("spawn of item %d: the frozen pool must not start goroutines", item)
		})
		for w := 0; w < workers; w++ {
			s.Acquire()
		}
		s.Announce(42, c.n, 2)
		for v := 0; v < workers; v++ {
			if got := s.shards[v].ilen.Load(); got != c.want[v] {
				t.Fatalf("n=%d: shard %d inbox holds %d copies, want %v", c.n, v, got, c.want)
			}
		}
		if got := s.shards[2].deque.Size(); got != 0 {
			t.Fatalf("n=%d: announcer's deque holds %d copies, want 0", c.n, got)
		}
		// Drain: each inbox copy is reachable from the announcer's steal path.
		for i := 0; i < c.n; i++ {
			if item, ok := s.popFor(2); !ok || item != 42 {
				t.Fatalf("n=%d: drain pop %d: got %d/%v", c.n, i, item, ok)
			}
		}
		for w := 0; w < workers; w++ {
			s.Yield(w)
		}
		waitQuiesce(t, "stealing", s)
	}
}

// TestStealScanCoversEveryVictim freezes a stealing pool and, for every
// thief and every other worker, puts one item on that victim's deque: the
// thief's steal path must find it, whatever its randomized start, and
// charge exactly one steal. This pins the flat victim order — the W−1 other
// workers, the thief itself skipped — at every width up to eight.
func TestStealScanCoversEveryVictim(t *testing.T) {
	for workers := 2; workers <= 8; workers++ {
		t.Run(fmt.Sprintf("w=%d", workers), func(t *testing.T) {
			s := NewStealing(workers, func(item, worker int) {
				t.Errorf("w=%d: spawn of item %d: the frozen pool must not start goroutines", workers, item)
			})
			for w := 0; w < workers; w++ {
				s.Acquire()
			}
			steals := int64(0)
			for thief := 0; thief < workers; thief++ {
				for victim := 0; victim < workers; victim++ {
					if victim == thief {
						continue
					}
					item := 100*thief + victim
					s.Submit(item, victim) // we hold victim's token: its own deque
					got, ok := s.popFor(thief)
					if !ok || got != item {
						t.Fatalf("w=%d thief %d: popped %d/%v, want item %d from victim %d", workers, thief, got, ok, item, victim)
					}
					steals++
					if st := s.Stats(); st.Steals != steals {
						t.Fatalf("w=%d thief %d victim %d: Steals = %d, want %d", workers, thief, victim, st.Steals, steals)
					}
				}
			}
			for w := 0; w < workers; w++ {
				s.Yield(w)
			}
			waitQuiesce(t, "stealing", s)
		})
	}
}
