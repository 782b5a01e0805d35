package experiments

import (
	"strings"
	"testing"
	"time"

	"splitserve/internal/attrib"
)

// TestWarmPoolCrossover is the acceptance check of the warm-pool
// experiment: in the saturated high-reuse cell (short arrival gap, many
// repeat shuffle reads) the warm pool with the /tmp cache tier must beat
// BOTH alternatives — VM autoscaling fails the SLO bar waiting out VM
// boots, and cold-start Lambda matches attainment but bills longer leases
// for the same work — with the provisioned-idle dollars itemized on the
// report. In the sparse low-reuse cell the same pool must LOSE: idle
// premium with nothing to amortize it.
func TestWarmPoolCrossover(t *testing.T) {
	cells, err := WarmPoolComparison(1, WarmPoolSweepConfig{
		Gaps:   []time.Duration{10 * time.Second, 240 * time.Second},
		Reuses: []int{6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	t.Logf("\n%s", FormatWarmPoolComparison(cells))

	hot, sparse := cells[0], cells[1]
	if hot.Gap != 10*time.Second || sparse.Gap != 240*time.Second {
		t.Fatalf("cell order: got gaps %v, %v", hot.Gap, sparse.Gap)
	}

	warm, vm, cold := hot.Run(WarmModeWarm), hot.Run(WarmModeVM), hot.Run(WarmModeCold)
	if len(hot.Runs) != 3 || warm == nil || vm == nil || cold == nil {
		t.Fatalf("hot cell runs = %d, want vm/cold/warm", len(hot.Runs))
	}
	if !hot.WarmWins() {
		t.Errorf("warm+tmp did not win the high-rate high-reuse cell: warm $%.4f (attain %.2f), vm $%.4f (attain %.2f), cold $%.4f (attain %.2f)",
			warm.Report.TotalUSD, warm.Report.SLOAttainment,
			vm.Report.TotalUSD, vm.Report.SLOAttainment,
			cold.Report.TotalUSD, cold.Report.SLOAttainment)
	}
	if sparse.WarmWins() {
		t.Errorf("warm+tmp should not win the sparse cell: idle premium has nothing to amortize it")
	}

	// The warm run's new economics and telemetry must be visible.
	w := warm.Report
	if w.LambdaIdleUSD <= 0 {
		t.Errorf("warm run LambdaIdleUSD = %v, want > 0 (idle provisioned capacity is never free)", w.LambdaIdleUSD)
	}
	if w.WarmHits == 0 {
		t.Errorf("warm run WarmHits = 0, want > 0")
	}
	if w.TmpCacheHits == 0 {
		t.Errorf("warm run TmpCacheHits = 0, want > 0")
	}
	if got := w.VMBaseUSD + w.VMAutoscaleUSD + w.LambdaUSD + w.LambdaIdleUSD; !within(got, w.TotalUSD, 1e-9) {
		t.Errorf("TotalUSD = %v, want sum of line items %v", w.TotalUSD, got)
	}
	// The alternatives must not be billed for idle capacity they never had.
	if vm.Report.LambdaIdleUSD != 0 || cold.Report.LambdaIdleUSD != 0 {
		t.Errorf("vm/cold runs report LambdaIdleUSD %v/%v, want 0",
			vm.Report.LambdaIdleUSD, cold.Report.LambdaIdleUSD)
	}

	// Every run carries a causal attribution whose aggregate blame sums to
	// the aggregate makespan (the layer-4 invariant, here over real sweep
	// logs rather than synthetic fixtures).
	for _, cell := range cells {
		for _, run := range cell.Runs {
			a := run.Attrib
			if a == nil || a.Totals.Jobs == 0 {
				t.Fatalf("%s gap=%s: run has no attribution", run.Mode, cell.Gap)
			}
			var sum int64
			for _, c := range attrib.Causes {
				sum += a.Totals.BlameUS.Get(c)
			}
			if sum != a.Totals.MakespanUS {
				t.Errorf("%s gap=%s: blame sum %d != makespan %d",
					run.Mode, cell.Gap, sum, a.Totals.MakespanUS)
			}
		}
	}
}

// TestWarmPoolComparisonDeterministic: same seed → byte-identical tables.
func TestWarmPoolComparisonDeterministic(t *testing.T) {
	run := func() string {
		cells, err := WarmPoolComparison(11, WarmPoolSweepConfig{
			Jobs:   4,
			Gaps:   []time.Duration{30 * time.Second},
			Reuses: []int{2},
		})
		if err != nil {
			t.Fatal(err)
		}
		return FormatWarmPoolComparison(cells)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed sweep diverged:\n--- first\n%s\n--- second\n%s", a, b)
	}
	if !strings.Contains(a, "warm+tmp") {
		t.Fatalf("table missing warm+tmp row:\n%s", a)
	}
}

func within(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < eps
}
