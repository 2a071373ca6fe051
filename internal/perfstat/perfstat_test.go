package perfstat

import (
	"math"
	"path/filepath"
	"testing"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", name, got, want, tol)
	}
}

func TestPerfstatMoments(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, "Mean", Mean(xs), 5, 1e-12)
	approx(t, "Variance", Variance(xs), 32.0/7, 1e-12)
	approx(t, "Median", Median(xs), 4.5, 1e-12)
	approx(t, "CV", CV(xs), math.Sqrt(32.0/7)/5, 1e-12)

	if got := CV([]float64{3, 3, 3}); got != 0 {
		t.Errorf("CV of constant sample = %g, want 0", got)
	}
	if got := CV([]float64{-1, 1}); !math.IsInf(got, 1) {
		t.Errorf("CV of zero-mean noisy sample = %g, want +Inf", got)
	}
	if got := CV(nil); got != 0 {
		t.Errorf("CV(nil) = %g, want 0", got)
	}
}

func TestPerfstatTrimOutliers(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want int // surviving count
	}{
		{"clean", []float64{10, 11, 10, 12, 11, 10}, 6},
		{"one-spike", []float64{10, 11, 10, 12, 11, 60}, 5},
		{"two-spikes", []float64{10, 11, 10, 12, 11, 60, 55, 10}, 6},
		{"too-small-untouched", []float64{1, 100, 1}, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := TrimOutliers(c.in)
			if len(out) != c.want {
				t.Fatalf("kept %d of %v, want %d: %v", len(out), c.in, c.want, out)
			}
			if c.want < len(c.in) { // trimming applied: spikes must be gone
				for _, x := range out {
					if x > 50 {
						t.Errorf("outlier %g survived trimming: %v", x, out)
					}
				}
			}
		})
	}
	// Degenerate spread where trimming would leave <2 values returns the
	// input unchanged rather than an unusable sample.
	in := []float64{1, 1, 1, 1000, 2000, 3000}
	if out := TrimOutliers(in); len(out) < 2 {
		t.Errorf("trimming left %d values, want >=2: %v", len(out), out)
	}
}

func TestPerfstatWelchT(t *testing.T) {
	// Identical samples: t=0, p=1.
	same := []float64{5, 6, 7, 8, 9}
	if _, _, p := WelchT(same, same); p < 0.99 {
		t.Errorf("identical samples: p=%g, want ~1", p)
	}
	// Clearly separated tight samples: decisively significant.
	a := []float64{10.0, 10.1, 9.9, 10.05, 9.95}
	b := []float64{20.0, 20.2, 19.8, 20.1, 19.9}
	if _, _, p := WelchT(a, b); p > 1e-6 {
		t.Errorf("separated samples: p=%g, want < 1e-6", p)
	}
	// Overlapping noisy samples: not significant.
	c := []float64{10, 12, 9, 11, 13}
	d := []float64{11, 10, 13, 9, 12}
	if _, _, p := WelchT(c, d); p < 0.5 {
		t.Errorf("overlapping samples: p=%g, want > 0.5", p)
	}
	// The t CDF itself: equal-variance equal-n reduces Welch to Student.
	// For n=m=6, pooled samples engineered to give a known t, just check
	// symmetry and monotonicity of the p-value in the separation.
	p1 := func(shift float64) float64 {
		base := []float64{1, 2, 3, 4, 5, 6}
		shifted := make([]float64, len(base))
		for i, x := range base {
			shifted[i] = x + shift
		}
		_, _, p := WelchT(base, shifted)
		return p
	}
	if !(p1(0.5) > p1(2) && p1(2) > p1(5)) {
		t.Errorf("p not monotone in separation: p(0.5)=%g p(2)=%g p(5)=%g", p1(0.5), p1(2), p1(5))
	}
	if math.Abs(p1(2)-p1(2)) > 0 {
		t.Errorf("p not deterministic")
	}
	// Degenerate: single-value samples with equal/unequal means.
	if _, _, p := WelchT([]float64{5}, []float64{5}); p != 1 {
		t.Errorf("single equal values: p=%g, want 1", p)
	}
	if _, _, p := WelchT([]float64{5}, []float64{6}); p != 0 {
		t.Errorf("single unequal values: p=%g, want 0", p)
	}
}

func TestPerfstatRegIncBeta(t *testing.T) {
	// I_x(a,b) reference values: I_0.5(0.5,0.5)=0.5 (symmetry),
	// I_x(1,1)=x (uniform), and the t-distribution spot check
	// P(|T|>2.228) ≈ 0.05 at df=10 (the classic t table entry).
	approx(t, "I_0.5(0.5,0.5)", regIncBeta(0.5, 0.5, 0.5), 0.5, 1e-9)
	approx(t, "I_0.3(1,1)", regIncBeta(1, 1, 0.3), 0.3, 1e-9)
	tcrit := 2.228
	df := 10.0
	approx(t, "t-tail df=10", regIncBeta(df/2, 0.5, df/(df+tcrit*tcrit)), 0.05, 1e-3)
}

func TestPerfstatMannWhitneyU(t *testing.T) {
	// Fully separated: U=0, p well under 0.05 even at n=5.
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{6, 7, 8, 9, 10}
	u, p := MannWhitneyU(a, b)
	if u != 0 {
		t.Errorf("separated: U=%g, want 0", u)
	}
	if p > 0.02 {
		t.Errorf("separated: p=%g, want < 0.02", p)
	}
	// Symmetric call: same p, mirrored U.
	u2, p2 := MannWhitneyU(b, a)
	approx(t, "mirrored U", u2, 25, 1e-12)
	approx(t, "symmetric p", p2, p, 1e-12)
	// All ties: indistinguishable.
	if _, p := MannWhitneyU([]float64{7, 7, 7}, []float64{7, 7, 7}); p != 1 {
		t.Errorf("all ties: p=%g, want 1", p)
	}
	// Interleaved: no evidence.
	if _, p := MannWhitneyU([]float64{1, 3, 5, 7}, []float64{2, 4, 6, 8}); p < 0.5 {
		t.Errorf("interleaved: p=%g, want > 0.5", p)
	}
	// Empty side: incomparable, p=1.
	if _, p := MannWhitneyU(nil, []float64{1}); p != 1 {
		t.Errorf("empty side: p=%g, want 1", p)
	}
}

func TestPerfstatCollect(t *testing.T) {
	// scripted returns a run func that replays vals then repeats the last.
	scripted := func(vals ...float64) func() float64 {
		i := 0
		return func() float64 {
			v := vals[i]
			if i < len(vals)-1 {
				i++
			}
			return v
		}
	}
	opts := CollectOptions{Reps: 5, MaxCV: 0.10, MaxExtra: 10}

	t.Run("stable-first-try", func(t *testing.T) {
		s := Collect(scripted(100, 101, 99, 100, 102), opts)
		if !s.Stable || s.Reruns != 0 || s.Raw != 5 {
			t.Fatalf("stable sample: %+v", s)
		}
	})
	t.Run("outlier-trimmed-then-stable", func(t *testing.T) {
		// One 3x spike among tight values: the trim drops it without
		// any reruns.
		s := Collect(scripted(100, 101, 300, 99, 100), opts)
		if !s.Stable {
			t.Fatalf("expected stable after trim: %+v", s)
		}
		for _, v := range s.Values {
			if v > 200 {
				t.Fatalf("spike survived: %v", s.Values)
			}
		}
	})
	t.Run("noisy-then-converges", func(t *testing.T) {
		// First five all over the place; reruns settle on 100 until the
		// noisy head is outvoted (trimmed or CV-diluted).
		s := Collect(scripted(100, 150, 60, 140, 70, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100), opts)
		if s.Reruns == 0 {
			t.Fatalf("expected reruns for noisy head: %+v", s)
		}
		if !s.Stable {
			t.Fatalf("expected eventual stability: %+v (cv=%g)", s, s.CV)
		}
	})
	t.Run("never-stable-budget-spent", func(t *testing.T) {
		i := 0
		alternating := func() float64 { // CV stays ~0.5 forever
			i++
			if i%2 == 0 {
				return 40
			}
			return 160
		}
		s := Collect(alternating, CollectOptions{Reps: 4, MaxCV: 0.05, MaxExtra: 6})
		if s.Stable {
			t.Fatalf("alternating sample reported stable: %+v", s)
		}
		if s.Reruns != 6 {
			t.Fatalf("reruns=%d, want full budget 6", s.Reruns)
		}
	})
}

func TestPerfstatGate(t *testing.T) {
	policy := GatePolicy{Alpha: 0.05, MinDelta: 0.10}
	fast := []float64{100, 101, 99, 100, 102, 100}
	slow := []float64{130, 131, 129, 130, 132, 130}   // +30%, tight
	slight := []float64{103, 104, 102, 103, 105, 103} // +3%, tight: significant but immaterial
	noisy := []float64{90, 140, 95, 130, 100, 125}    // overlapping spread

	cases := []struct {
		name     string
		old, new []float64
		want     Outcome
	}{
		{"regression-fires", fast, slow, Regressed},
		{"improvement-reported", slow, fast, Improved},
		{"identical-passes", fast, fast, Unchanged},
		{"significant-but-immaterial-passes", fast, slight, Unchanged},
		{"material-but-insignificant-passes", fast, noisy, Unchanged},
		{"new-entry-incomparable", nil, fast, Incomparable},
		{"removed-entry-incomparable", fast, nil, Incomparable},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Compare(c.old, c.new, policy)
			if got.Outcome != c.want {
				t.Fatalf("Compare(%v, %v) = %v (%s), want %v", c.old, c.new, got.Outcome, got, c.want)
			}
		})
	}

	// The two halves of the conjunction, checked explicitly: the
	// regression case is both significant and material, the noisy case
	// material but not significant.
	if c := Compare(fast, slow, policy); !c.Significant || c.Delta < 0.10 {
		t.Errorf("regression case: %+v, want significant and material", c)
	}
	if c := Compare(fast, noisy, policy); c.Significant {
		t.Errorf("noisy case unexpectedly significant: %+v", c)
	}
}

func TestPerfstatHistoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist", "..", "BENCH_history.json")
	if recs, err := LoadHistory(path); err != nil || recs != nil {
		t.Fatalf("missing file: recs=%v err=%v, want empty, nil", recs, err)
	}
	r1 := Record{
		Commit: "aaa", Time: "2026-08-08T00:00:00Z", Go: "go1.24", MaxProcs: 4,
		Entries: []HistoryEntry{
			{Name: "z/last", Unit: "ns/op", Values: []float64{2, 2, 2}, Mean: 2, Stable: true},
			{Name: "a/first", Unit: "ns/op", Values: []float64{1, 1, 1}, Mean: 1, Stable: true},
		},
	}
	if err := AppendHistory(path, r1); err != nil {
		t.Fatal(err)
	}
	r2 := Record{Commit: "bbb", Time: "2026-08-08T01:00:00Z", Go: "go1.24", MaxProcs: 4, Quick: true}
	if err := AppendHistory(path, r2); err != nil {
		t.Fatal(err)
	}
	recs, err := LoadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Commit != "aaa" || recs[1].Commit != "bbb" {
		t.Fatalf("round trip: %+v", recs)
	}
	// Entries come back sorted by name (canonical on-disk order).
	if recs[0].Entries[0].Name != "a/first" {
		t.Errorf("entries not sorted: %+v", recs[0].Entries)
	}
	// Quick and full records never gate against each other.
	if last := LastComparable(recs, false); last == nil || last.Commit != "aaa" {
		t.Errorf("LastComparable(full) = %+v, want commit aaa", last)
	}
	if last := LastComparable(recs, true); last == nil || last.Commit != "bbb" {
		t.Errorf("LastComparable(quick) = %+v, want commit bbb", last)
	}
	if e, ok := recs[0].Entry("z/last"); !ok || e.Mean != 2 {
		t.Errorf("Entry lookup: %+v %v", e, ok)
	}
	if _, ok := recs[0].Entry("nope"); ok {
		t.Errorf("Entry lookup found a missing name")
	}
	// A degraded record is kept but never serves as a baseline.
	r3 := Record{Commit: "ccc", Time: "2026-08-08T02:00:00Z", Go: "go1.24", MaxProcs: 1, NumCPU: 1,
		CPU: "test cpu", Degraded: true}
	if err := AppendHistory(path, r3); err != nil {
		t.Fatal(err)
	}
	if recs, err = LoadHistory(path); err != nil || len(recs) != 3 {
		t.Fatalf("after degraded append: %d records, err %v", len(recs), err)
	}
	if got := recs[2]; !got.Degraded || got.NumCPU != 1 || got.CPU != "test cpu" {
		t.Errorf("degraded record did not round-trip: %+v", got)
	}
	if last := LastComparable(recs, false); last == nil || last.Commit != "aaa" {
		t.Errorf("LastComparable(full) = %+v, want commit aaa (degraded ccc skipped)", last)
	}
}
