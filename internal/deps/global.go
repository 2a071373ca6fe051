package deps

import (
	"sync"
	"sync/atomic"
)

// GlobalEngine is the single-lock Engine: one mutex serializes every
// submit, release, and cascade across all data objects. It is the
// reference implementation — simplest to reason about, and the baseline
// the contention benchmarks measure the sharded engine against.
type GlobalEngine struct {
	mu       sync.Mutex
	c        depCore
	ep       *enginePools // nil in the reference memory mode
	hookSlot atomic.Pointer[EdgeHook]
}

var _ Engine = (*GlobalEngine)(nil)

func newGlobalEngine(obs Observer, pooled bool) *GlobalEngine {
	e := &GlobalEngine{}
	e.c.obs = obs
	e.c.hook = &e.hookSlot
	if pooled {
		e.ep = newEnginePools()
		e.c.mem = newDepMem(e.ep, everyShard)
	}
	return e
}

// SetEdgeHook installs (or, with nil, uninstalls) the edge-export hook;
// see the Engine contract.
func (e *GlobalEngine) SetEdgeHook(fn EdgeHook) {
	if fn == nil {
		e.hookSlot.Store(nil)
		return
	}
	e.hookSlot.Store(&fn)
}

// Stats returns a snapshot of the activity counters.
func (e *GlobalEngine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.c.stats
}

// LiveFragments returns the number of fragments not yet fully released.
func (e *GlobalEngine) LiveFragments() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.c.liveFrags
}

// MemStats returns the engine's memory-pool counters; pooled=false (and
// zero counters) in the reference memory mode.
func (e *GlobalEngine) MemStats() (MemStats, bool) {
	if e.ep == nil {
		return MemStats{}, false
	}
	return e.ep.memStats(), true
}

// NewNode creates a node under parent (nil for a domain root).
func (e *GlobalEngine) NewNode(parent *Node, label string, user any) *Node {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.c.stats.Nodes++
	var n *Node
	if e.ep != nil {
		n = e.ep.newPooledNode(laneHint(parent, user), parent, label, user)
		if parent != nil {
			parent.pins.Add(1) // released when the child node is recycled
		}
	} else {
		n = newNode(parent, label, user)
	}
	if e.c.obs != nil {
		e.c.obs.NodeCreated(n, parent)
	}
	return n
}

// Register links the node's depend entries into its parent's domain and
// reports whether the node is immediately ready to execute.
func (e *GlobalEngine) Register(n *Node, specs []Spec) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	checkRegister(n, specs)
	for _, spec := range specs {
		e.c.registerSpec(n, spec, makeKey(spec.Data, 0), wholeObject)
	}
	return finishRegister(n, e.c.obs)
}

// BodyDoneInto implements the weakwait clause (§V), appending the nodes
// that became ready to out.
func (e *GlobalEngine) BodyDoneInto(n *Node, out []*Node) []*Node {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, acc := range n.accesses {
		for _, f := range acc.frags {
			e.c.handOverOrRelease(n, f, f.iv)
		}
	}
	e.c.drainQueue()
	return e.c.appendReady(out)
}

// ReleaseRegionsInto implements the release directive (§V), appending the
// nodes that became ready to out.
func (e *GlobalEngine) ReleaseRegionsInto(n *Node, specs []Spec, out []*Node) []*Node {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, spec := range specs {
		e.c.releaseSpec(n, spec, makeKey(spec.Data, 0), wholeObject)
	}
	e.c.drainQueue()
	return e.c.appendReady(out)
}

// CompleteInto finalizes the node once its code and all descendants have
// finished, appending the nodes that became ready to out. Under the pooled
// memory mode the node may be recycled before CompleteInto returns; see
// the Engine contract.
func (e *GlobalEngine) CompleteInto(n *Node, out []*Node) []*Node {
	e.mu.Lock()
	defer e.mu.Unlock()
	n.completed = true
	for _, acc := range n.accesses {
		for _, f := range acc.frags {
			e.c.markDone(f, f.iv)
		}
	}
	e.c.drainQueue()
	out = e.c.appendReady(out)
	if e.ep != nil {
		// Release the completion hold; if the node's fragments and
		// descendants have already drained, this recycles it (and may
		// cascade to drained ancestors).
		e.ep.unpin(n, e.c.mem)
	}
	return out
}
