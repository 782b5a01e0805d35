package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"splitserve/internal/costmgr"
)

var update = flag.Bool("update", false, "regenerate testdata/profiles.json and testdata/burscale.golden")

// loadTestProfiles returns the checked-in seed-1 profile file (the same
// bytes `splitserve-profile -out` writes). Regenerate after calibration
// changes with
//
//	go test ./internal/experiments -run CostManager -update
func loadTestProfiles(t *testing.T) *costmgr.File {
	t.Helper()
	path := filepath.Join("testdata", "profiles.json")
	if *update {
		f, err := BuildProfileFile(1, nil, nil, nil)
		if err != nil {
			t.Fatalf("BuildProfileFile: %v", err)
		}
		buf, err := f.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := costmgr.Load(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	return f
}

// TestCostManagerComparisonAcceptance is the ISSUE's acceptance check: on
// the default mix at the same seed, profile-driven min-cost allocation
// must yield strictly lower total cost than the fixed per-job R at
// equal-or-better SLO attainment, and the run must score its predictions.
func TestCostManagerComparisonAcceptance(t *testing.T) {
	runs, err := CostManagerComparison(1, loadTestProfiles(t))
	if err != nil {
		t.Fatalf("CostManagerComparison: %v", err)
	}
	byAlloc := map[string]CostManagerRun{}
	for _, r := range runs {
		byAlloc[r.Alloc] = r
	}
	fixed, ok := byAlloc["fixed"]
	if !ok {
		t.Fatal("no fixed run in the comparison")
	}
	minCost, ok := byAlloc["min-cost"]
	if !ok {
		t.Fatal("no min-cost run in the comparison")
	}

	if fixed.Report.Alloc != "fixed" || minCost.Report.Alloc != "min-cost" {
		t.Fatalf("reports mislabeled: %q vs %q", fixed.Report.Alloc, minCost.Report.Alloc)
	}
	if got, want := minCost.Report.TotalUSD, fixed.Report.TotalUSD; got >= want {
		t.Errorf("min-cost total $%.4f not strictly below fixed $%.4f", got, want)
	}
	if got, want := minCost.Report.SLOAttainment, fixed.Report.SLOAttainment; got < want {
		t.Errorf("min-cost attainment %.3f below fixed %.3f", got, want)
	}
	if minCost.Report.PredictedJobs != minCost.Report.Jobs {
		t.Errorf("only %d/%d min-cost jobs carry predictions",
			minCost.Report.PredictedJobs, minCost.Report.Jobs)
	}
	if minCost.Report.MeanAbsRunPredErr <= 0 {
		t.Error("min-cost run reports no prediction error")
	}
	if len(minCost.Decisions) != minCost.Report.Jobs {
		t.Fatalf("%d decisions for %d jobs", len(minCost.Decisions), minCost.Report.Jobs)
	}
	for i, d := range minCost.Decisions {
		if d.Source != "profile" || d.Cores < 1 {
			t.Errorf("decision %d degenerate: %+v", i, d)
		}
	}

	table := FormatCostManagerComparison(runs)
	for _, frag := range []string{"fixed", "min-cost", "min-time", "knee", "attain", "|pred err|"} {
		if !strings.Contains(table, frag) {
			t.Errorf("comparison table lacks %q:\n%s", frag, table)
		}
	}
}
