package trace

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
)

// Detrimental-pattern detection: when a benchmark regresses, the raw
// number says nothing about the cause. This classifier runs over an
// execution trace and tests for the detrimental task execution patterns of
// "Detrimental task execution patterns in mainstream OpenMP runtimes"
// (Tuft et al., PAPERS.md), so a slow run comes with a diagnosis:
//
//   - serialized-creation: a long leading phase where at most one worker
//     is busy — the single task generator instantiating the graph while
//     everyone else idles, the pattern the paper's nested variants (and
//     this runtime's worksharing regions) exist to break;
//   - starved-workers: some workers accumulate far less busy time than
//     the busiest — ready work exists but never reaches them (broken
//     steal path, affinity misrouting, announcement failure);
//   - wait-heavy: effective parallelism is low with the idleness spread
//     across all workers as many short gaps between spans — workers
//     repeatedly drain and block on synchronization (over-subscribed
//     waits, a cascade resuming waiters one at a time).
//
// The three are deliberately disjoint in what they measure (leading
// prefix, per-worker imbalance, distributed fragmentation), so one trace
// can surface several when several things are wrong.

// Finding is one detected pattern.
type Finding struct {
	// Pattern is the taxonomy key: "serialized-creation",
	// "starved-workers", or "wait-heavy".
	Pattern string
	// Severity grades the finding in [0, 1] (1 = worst).
	Severity float64
	// Detail is the one-line quantitative diagnosis.
	Detail string
}

// Detection thresholds. Exported as constants so the docs and tests state
// the policy once.
const (
	// SerializedCreationMinFrac: a sub-2-concurrency leading prefix
	// longer than this fraction of the wall flags serialized creation.
	SerializedCreationMinFrac = 0.20
	// StarvedWorkerFrac: a worker with less than this fraction of the
	// busiest worker's busy time is starved.
	StarvedWorkerFrac = 0.25
	// WaitHeavyMaxEP: effective parallelism (busy / workers·wall) below
	// this flags wait-heaviness when the idleness is fragmented.
	WaitHeavyMaxEP = 0.60
	// WaitHeavyMinGaps: minimum idle gaps per affected worker for the
	// idleness to count as fragmented (a single long gap is phase
	// imbalance, not wait churn).
	WaitHeavyMinGaps = 2
)

// DetectPatterns classifies the trace against the detrimental-pattern
// taxonomy. wall is the run's wall time in span units (<= 0 uses the
// trace extent). Single-worker traces and empty traces return nil — the
// patterns are parallelism pathologies.
func (t *Tracer) DetectPatterns(wall int64) []Finding {
	workers := t.Workers()
	lo, hi := t.Extent()
	if workers < 2 || hi <= lo {
		return nil
	}
	if wall <= 0 {
		wall = hi - lo
	}
	var out []Finding
	if f, ok := t.detectSerializedCreation(lo, wall); ok {
		out = append(out, f)
	}
	if f, ok := t.detectStarvedWorkers(wall); ok {
		out = append(out, f)
	}
	if f, ok := t.detectWaitHeavy(wall); ok {
		out = append(out, f)
	}
	return out
}

// detectSerializedCreation measures the leading prefix during which fewer
// than two spans overlap — the creation phase a single generator
// serializes. The sweep orders span ends before starts at equal
// timestamps, so back-to-back spans on one worker do not count as
// concurrency.
func (t *Tracer) detectSerializedCreation(lo, wall int64) (Finding, bool) {
	type event struct {
		at    int64
		delta int
	}
	var events []event
	for _, ws := range t.perWorker {
		for _, s := range ws {
			events = append(events, event{s.Start, +1}, event{s.End, -1})
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].delta < events[j].delta // ends before starts
	})
	active := 0
	reached := lo + wall // never-reached sentinel: serial to the end
	for _, e := range events {
		active += e.delta
		if active >= 2 {
			reached = e.at
			break
		}
	}
	frac := float64(reached-lo) / float64(wall)
	if frac <= SerializedCreationMinFrac {
		return Finding{}, false
	}
	return Finding{
		Pattern:  "serialized-creation",
		Severity: frac,
		Detail: fmt.Sprintf("concurrency < 2 for the leading %.0f%% of the run (%d of %d units) — single-generator creation phase",
			frac*100, reached-lo, wall),
	}, true
}

// detectStarvedWorkers compares per-worker busy time against the busiest
// worker: workers far below it were starved of ready work.
func (t *Tracer) detectStarvedWorkers(wall int64) (Finding, bool) {
	busy := make([]int64, len(t.perWorker))
	var maxBusy int64
	for w, ws := range t.perWorker {
		for _, s := range ws {
			busy[w] += s.End - s.Start
		}
		if busy[w] > maxBusy {
			maxBusy = busy[w]
		}
	}
	// If even the busiest worker barely ran, the trace is idle overall —
	// that is wait-heaviness or serialization, not starvation.
	if float64(maxBusy) < 0.30*float64(wall) {
		return Finding{}, false
	}
	var starved []int
	for w, b := range busy {
		if float64(b) < StarvedWorkerFrac*float64(maxBusy) {
			starved = append(starved, w)
		}
	}
	if len(starved) == 0 {
		return Finding{}, false
	}
	return Finding{
		Pattern:  "starved-workers",
		Severity: float64(len(starved)) / float64(len(busy)),
		Detail: fmt.Sprintf("workers %v ran < %.0f%% of the busiest worker's busy time — ready work is not reaching them",
			starved, StarvedWorkerFrac*100),
	}, true
}

// detectWaitHeavy flags low effective parallelism whose idleness is
// fragmented into repeated gaps on most workers — the signature of
// over-subscribed synchronization (every worker keeps draining and
// re-blocking), as opposed to one long idle phase.
func (t *Tracer) detectWaitHeavy(wall int64) (Finding, bool) {
	workers := len(t.perWorker)
	ep := float64(t.BusyTime()) / (float64(workers) * float64(wall))
	if ep >= WaitHeavyMaxEP {
		return Finding{}, false
	}
	fragmented := 0
	totalGaps := 0
	for _, ws := range t.perWorker {
		spans := append([]Span(nil), ws...)
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		gaps := 0
		for i := 1; i < len(spans); i++ {
			if spans[i].Start > spans[i-1].End {
				gaps++
			}
		}
		totalGaps += gaps
		if gaps >= WaitHeavyMinGaps {
			fragmented++
		}
	}
	if fragmented < (workers+1)/2 {
		return Finding{}, false
	}
	return Finding{
		Pattern:  "wait-heavy",
		Severity: 1 - ep,
		Detail: fmt.Sprintf("effective parallelism %.2f of %d workers with %d idle gaps across %d workers — over-subscribed waits",
			ep*float64(workers), workers, totalGaps, fragmented),
	}, true
}

// PatternReport renders findings as a diagnosis table; no findings renders
// an explicit all-clear line.
func PatternReport(findings []Finding) string {
	if len(findings) == 0 {
		return "no detrimental execution pattern detected\n"
	}
	tb := metrics.NewTable("detrimental execution patterns (Tuft et al. taxonomy)",
		"pattern", "severity", "diagnosis")
	for _, f := range findings {
		tb.Add(f.Pattern, fmt.Sprintf("%.2f", f.Severity), f.Detail)
	}
	return tb.String()
}
