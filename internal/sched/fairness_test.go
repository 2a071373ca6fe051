package sched

import (
	"sync/atomic"
	"testing"
	"time"
)

// Token-waiter fairness: at a release point (Finish here), a blocked
// Acquire — a resuming taskwait, which holds a live task mid-execution —
// must win the token over spawning fresh queued work. The stealing pool
// and its central reference are held to the same protocol, including the
// stealing pool's lock-free release paths (run with -race to validate
// those).
func TestTokenWaiterFairness(t *testing.T) {
	type pool struct {
		name string
		make func(spawn func(item, worker int)) (q Queue[int], waiters func() int)
	}
	central := func(s *Scheduler[int]) (Queue[int], func() int) {
		return s, func() int {
			s.mu.Lock()
			defer s.mu.Unlock()
			return len(s.waiters)
		}
	}
	pools := []pool{
		{"central", func(spawn func(int, int)) (Queue[int], func() int) {
			return central(newCentral(1, spawn))
		}},
		{"stealing", func(spawn func(int, int)) (Queue[int], func() int) {
			s := NewStealing(1, spawn)
			return s, func() int { return int(s.nwaiters.Load()) }
		}},
	}
	for _, p := range pools {
		t.Run(p.name, func(t *testing.T) {
			var (
				q        Queue[int]
				waiters  func() int
				started  = make(chan struct{})
				gate     = make(chan struct{})
				ranFresh atomic.Bool
				freshRan = make(chan struct{})
			)
			q, waiters = p.make(func(item, worker int) {
				for {
					switch item {
					case 1: // the running task the waiter will race
						close(started)
						<-gate
					case 2: // the fresh queued work that must lose
						ranFresh.Store(true)
						close(freshRan)
					}
					next, ok := q.Finish(worker)
					if !ok {
						return
					}
					item = next
				}
			})
			q.Submit(1, -1) // takes the single token and blocks on gate
			<-started
			q.Submit(2, -1) // queues: the token is busy

			// Block an Acquire (the "resuming taskwait").
			acquired := make(chan int, 1)
			go func() { acquired <- q.Acquire() }()
			deadline := time.Now().Add(5 * time.Second)
			for waiters() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("Acquire never registered as a waiter")
				}
				time.Sleep(100 * time.Microsecond)
			}

			close(gate) // runner 1 reaches Finish: the waiter must win
			var w int
			select {
			case w = <-acquired:
			case <-time.After(5 * time.Second):
				t.Fatal("blocked Acquire lost the token to fresh queued work")
			}
			if ranFresh.Load() {
				t.Fatal("fresh queued work ran before the blocked Acquire resumed")
			}
			// The resumed holder releases; only now may item 2 run.
			q.Yield(w)
			select {
			case <-freshRan:
			case <-time.After(5 * time.Second):
				t.Fatal("queued work never ran after the waiter released the token")
			}
			deadline = time.Now().Add(5 * time.Second)
			for !q.Idle() {
				if time.Now().After(deadline) {
					t.Fatal("pool did not quiesce")
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
