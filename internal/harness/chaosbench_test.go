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
func TestChaosBenchRows(t *testing.T) {
	iters := 8
	if testing.Short() {
		iters = 4
	}
	var ref ChaosResult
	for i, g := range ChaosGroups {
		res := ChaosBench(g, 7, 2, 4, iters, 12)
		if i == 0 {
			ref = res
			if res.Hits != 0 {
				t.Fatalf("off row recorded %d failpoint hits", res.Hits)
			}
			continue
		}
		if res.Checksum != ref.Checksum {
			t.Errorf("group %q: checksum %d != off row %d", g.Name, res.Checksum, ref.Checksum)
		}
		if res.Hits == 0 {
			t.Errorf("group %q: failpoints never engaged", g.Name)
		}
		if res.Stalls != 0 {
			t.Errorf("group %q: %d stall reports, want 0", g.Name, res.Stalls)
		}
	}
}
