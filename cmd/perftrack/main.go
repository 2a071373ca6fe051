// Command perftrack tracks the runtime's performance trajectory across
// commits. It runs the full depbench kernel matrix (deps, sched,
// throttle, replay, worksharing, taskwait) plus the cmd/reproduce
// workloads, collecting every entry under coefficient-of-variation
// validation (internal/perfstat.Collect: noisy entries are re-run, not
// averaged into garbage), and appends a per-commit record to a committed
// history file (BENCH_history.json).
//
// A run whose GOMAXPROCS is below its widest worker count is recorded as
// degraded — its "wN" entries measured goroutine interleaving, not
// parallel contention — and no later run gates against it. Each record
// also carries the host's CPU count and model next to go/maxprocs.
//
// With -compare, the run is first gated against the last accepted
// non-degraded record of the same class (quick vs full): each entry's new
// sample is tested
// against its recorded one with a Mann-Whitney U test plus a materiality
// floor (internal/perfstat.Compare). Any REGRESSED entry fails the run
// with exit status 1, the record is NOT appended, and a traced workload
// matched to the first regressed entry's family (worksharing for ws/*,
// nested weakwait for wait/*, flat dependencies for deps/sched/throttle/
// locality, the graph-region sweep otherwise) is re-run and classified
// against the detrimental execution patterns of Tuft et al.
// (internal/trace.DetectPatterns) so the failure comes with a diagnosis
// from the regressed machinery, not just a number.
//
// -selftest-gate proves the gate and the detector on synthetic inputs
// (a regression must fire, an identical sample must not; a serialized
// trace must classify, a healthy one must not) and exits; CI runs it so
// the machinery guarding the numbers is itself guarded.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/perfstat"
	"repro/internal/trace"
)

func main() {
	var (
		history  = flag.String("history", "BENCH_history.json", "trajectory history file to gate against and append to")
		workers  = flag.String("workers", "1,2,4", "comma-separated worker counts for the kernel matrix")
		quick    = flag.Bool("quick", false, "reduced-op matrix for smoke runs (never compared against full records)")
		reps     = flag.Int("reps", 5, "initial measurement repetitions per entry")
		maxCV    = flag.Float64("maxcv", 0.10, "coefficient-of-variation ceiling; noisier entries are re-run")
		alpha    = flag.Float64("alpha", 0.05, "significance level for the regression gate")
		minDelta = flag.Float64("min-delta", 0.10, "materiality floor for the gate (relative slowdown)")
		compare  = flag.Bool("compare", false, "gate against the last comparable record; exit 1 on regression")
		noAppend = flag.Bool("no-append", false, "collect and compare only; do not append to the history")
		commit   = flag.String("commit", "", "commit id for the record (default: git rev-parse --short HEAD)")
		selftest = flag.Bool("selftest-gate", false, "verify gate and pattern detector on synthetic inputs, then exit")
	)
	flag.Parse()

	if *selftest {
		os.Exit(selftestGate(perfstat.GatePolicy{Alpha: *alpha, MinDelta: *minDelta}))
	}

	// Same measurement hygiene as cmd/depbench: full mutex contention
	// sampling, and a high GC target so allocation-heavy kernels measure
	// the runtime, not the collector.
	runtime.SetMutexProfileFraction(1)
	debug.SetGCPercent(1000)

	widths, err := parseWorkers(*workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perftrack:", err)
		os.Exit(2)
	}

	rec := collect(widths, *quick, perfstat.CollectOptions{Reps: *reps, MaxCV: *maxCV}, *commit)

	if *compare {
		if !gate(*history, rec, perfstat.GatePolicy{Alpha: *alpha, MinDelta: *minDelta}) {
			os.Exit(1)
		}
	}
	if *noAppend {
		return
	}
	if err := perfstat.AppendHistory(*history, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perftrack: append:", err)
		os.Exit(2)
	}
	fmt.Printf("appended record %s (%d entries) to %s\n", rec.Commit, len(rec.Entries), *history)
}

// parseWorkers parses the -workers CSV.
func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -workers entry %q", f)
		}
		out = append(out, w)
	}
	sort.Ints(out)
	return out, nil
}

// collect runs every matrix entry under CV validation and builds the
// trajectory record.
func collect(widths []int, quick bool, opts perfstat.CollectOptions, commit string) perfstat.Record {
	entries := harness.PerfEntries(harness.PerfMatrix{Workers: widths, Quick: quick})
	rec := perfstat.Record{
		Commit:   commitID(commit),
		Time:     time.Now().UTC().Format(time.RFC3339),
		Go:       runtime.Version(),
		MaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:   runtime.NumCPU(),
		CPU:      cpuModel(),
		Quick:    quick,
	}
	if widest := widths[len(widths)-1]; rec.MaxProcs < widest {
		rec.Degraded = true
		fmt.Printf("perftrack: GOMAXPROCS=%d is below the widest entry (w=%d): the record is tagged degraded and will not serve as a baseline\n",
			rec.MaxProcs, widest)
	}
	fmt.Printf("perftrack: %d entries, %d reps each (max CV %.0f%%), commit %s\n",
		len(entries), opts.Reps, opts.MaxCV*100, rec.Commit)
	tb := metrics.NewTable("perf trajectory collection",
		"entry", "unit", "mean", "cv", "reruns", "stable")
	for _, e := range entries {
		e.Run() // warm-up pass: fill pools, fault pages, settle the JIT-less world
		runtime.GC()
		s := perfstat.Collect(e.Run, opts)
		rec.Entries = append(rec.Entries, perfstat.HistoryEntry{
			Name: e.Name, Unit: e.Unit, Values: s.Values,
			Mean: s.Mean(), CV: s.CV, Reruns: s.Reruns, Stable: s.Stable,
		})
		stable := "yes"
		if !s.Stable {
			stable = "NO"
		}
		tb.Add(e.Name, e.Unit, fmt.Sprintf("%.1f", s.Mean()),
			fmt.Sprintf("%.1f%%", s.CV*100), fmt.Sprint(s.Reruns), stable)
	}
	fmt.Print(tb.String())
	return rec
}

// cpuModel returns the host CPU's model name from /proc/cpuinfo, or ""
// where that is unavailable.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// commitID resolves the record's commit id.
func commitID(explicit string) string {
	if explicit != "" {
		return explicit
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// gate compares rec against the last comparable history record. Returns
// false (and prints a trace diagnosis) when any entry regressed.
func gate(path string, rec perfstat.Record, policy perfstat.GatePolicy) bool {
	recs, err := perfstat.LoadHistory(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perftrack: history:", err)
		return false
	}
	base := perfstat.LastComparable(recs, rec.Quick)
	if base == nil {
		fmt.Printf("no comparable record in %s (quick=%v); gate skipped\n", path, rec.Quick)
		return true
	}
	fmt.Printf("gate: comparing against %s (%s)\n", base.Commit, base.Time)
	tb := metrics.NewTable("regression gate", "entry", "old", "new", "verdict")
	var regressed []string
	for _, e := range rec.Entries {
		old, found := base.Entry(e.Name)
		if !found {
			tb.Add(e.Name, "-", fmt.Sprintf("%.1f %s", e.Mean, e.Unit), "n/a (new entry)")
			continue
		}
		c := perfstat.Compare(old.Values, e.Values, policy)
		tb.Add(e.Name,
			fmt.Sprintf("%.1f %s", c.OldMean, e.Unit),
			fmt.Sprintf("%.1f %s", c.NewMean, e.Unit),
			c.String())
		if c.Outcome == perfstat.Regressed {
			regressed = append(regressed, e.Name)
		}
	}
	fmt.Print(tb.String())
	if len(regressed) == 0 {
		fmt.Println("gate: clean")
		return true
	}
	fmt.Printf("gate: %d entries REGRESSED: %s\n", len(regressed), strings.Join(regressed, ", "))
	diagnose(rec, regressed[0])
	return false
}

// diagnose reruns a traced workload matched to the first regressed
// entry's family and classifies it against the detrimental-pattern
// taxonomy so the gate failure carries a cause from the machinery that
// actually regressed.
func diagnose(rec perfstat.Record, entry string) {
	cores := rec.MaxProcs
	if cores < 2 {
		cores = 2
	}
	if _, err := harness.Diagnose(os.Stdout, entry, cores, rec.Quick); err != nil {
		fmt.Fprintln(os.Stderr, "perftrack: diagnosis trace failed:", err)
	}
}

// selftestGate proves the gate and the detector end to end on synthetic
// inputs: the machinery must produce BOTH verdicts on demand.
func selftestGate(policy perfstat.GatePolicy) int {
	ok := true
	check := func(name string, pass bool, detail string) {
		verdict := "ok"
		if !pass {
			verdict = "FAIL"
			ok = false
		}
		fmt.Printf("selftest %-28s %-4s %s\n", name, verdict, detail)
	}

	// Gate: a clear 2x slowdown must gate; identical samples must not;
	// a clear speedup must report improved without gating.
	fast := []float64{100, 101, 99, 100, 102, 98}
	slow := []float64{200, 202, 198, 201, 199, 200}
	c := perfstat.Compare(fast, slow, policy)
	check("gate/regression-fires", c.Outcome == perfstat.Regressed, c.String())
	c = perfstat.Compare(fast, fast, policy)
	check("gate/identical-passes", c.Outcome == perfstat.Unchanged, c.String())
	c = perfstat.Compare(slow, fast, policy)
	check("gate/improvement-passes", c.Outcome == perfstat.Improved, c.String())

	// Detector: a serialized-creation trace must classify, a healthy
	// trace must stay clean.
	serial := trace.New(4)
	k := serial.KindID("task")
	serial.Record(0, k, 0, 50)
	for w := 0; w < 4; w++ {
		serial.Record(w, k, 50, 100)
	}
	fs := serial.DetectPatterns(100)
	found := false
	for _, f := range fs {
		if f.Pattern == "serialized-creation" {
			found = true
		}
	}
	check("detector/serialized-fires", found, fmt.Sprintf("%d findings", len(fs)))

	healthy := trace.New(4)
	for w := 0; w < 4; w++ {
		healthy.Record(w, k, 0, 100)
	}
	fs = healthy.DetectPatterns(100)
	check("detector/healthy-clean", len(fs) == 0, fmt.Sprintf("%d findings", len(fs)))

	if !ok {
		return 1
	}
	fmt.Println("selftest: gate and detector verified")
	return 0
}
