package harness

import (
	"testing"

	"repro/internal/chaos"
)

// TestChaosGroupsCoverAllSites: the subsystem rows must partition the full
// failpoint set — a site missing from every group would silently escape
// the chaos table.
func TestChaosGroupsCoverAllSites(t *testing.T) {
	covered := make(map[chaos.Site]bool)
	for _, g := range ChaosGroups {
		if g.Name == "all" {
			if len(g.Sites) != chaos.NumSites {
				t.Errorf("all group has %d sites, want %d", len(g.Sites), chaos.NumSites)
			}
			continue
		}
		for _, s := range g.Sites {
			if covered[s] {
				t.Errorf("site %v appears in two subsystem groups", s)
			}
			covered[s] = true
		}
	}
	for i := 0; i < chaos.NumSites; i++ {
		if !covered[chaos.Site(i)] {
			t.Errorf("site %v is in no subsystem group", chaos.Site(i))
		}
	}
}

// TestChaosBenchRows runs a small sweep of the actual table rows: every
// armed row must engage its failpoints, report zero stalls, and agree with
// the off row's checksum.
//
// The throttle sites sit on the paths a reserver takes when it finds the
// window full, and four workers draining a window of eight as fast as one
// submitter fills it do not always get there in a few iterations. That row
// is therefore also run on one worker, where it must: a lone worker cannot
// start what it submits before it blocks, so its window of two is full at
// the third ready task of every iteration. The engagement check reads that
// run; the checksum and stall checks apply to both.
func TestChaosBenchRows(t *testing.T) {
	iters := 8
	if testing.Short() {
		iters = 4
	}
	var ref ChaosResult
	check := func(g ChaosGroup, workers int, wantHits bool) {
		res := ChaosBench(g, 7, 2, workers, iters, 12)
		t.Logf("group %q w=%d: %d failpoint hits", g.Name, workers, res.Hits)
		if res.Checksum != ref.Checksum {
			t.Errorf("group %q w=%d: checksum %d != off row %d", g.Name, workers, res.Checksum, ref.Checksum)
		}
		if wantHits && res.Hits == 0 {
			t.Errorf("group %q w=%d: failpoints never engaged", g.Name, workers)
		}
		if res.Stalls != 0 {
			t.Errorf("group %q w=%d: %d stall reports, want 0", g.Name, workers, res.Stalls)
		}
	}
	for i, g := range ChaosGroups {
		if i == 0 {
			ref = ChaosBench(g, 7, 2, 4, iters, 12)
			if ref.Hits != 0 {
				t.Fatalf("off row recorded %d failpoint hits", ref.Hits)
			}
			continue
		}
		solo := g.Name == "throttle"
		check(g, 4, !solo)
		if solo {
			check(g, 1, true)
		}
	}
}
