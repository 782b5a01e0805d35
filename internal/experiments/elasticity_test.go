package experiments

import (
	"strings"
	"testing"
)

// TestClusterElasticityDefaultMix is the ISSUE's acceptance criterion on
// the default workload mix: with scale-down enabled the autoscaling run
// must report strictly lower VM-hours than scale-down disabled, at
// equal-or-better SLO attainment; adding deadline admission must not
// increase violations and must shed only jobs that never ran.
func TestClusterElasticityDefaultMix(t *testing.T) {
	reps, err := elasticityRuns()
	if err != nil {
		t.Fatalf("ClusterElasticity: %v", err)
	}
	if len(reps) != 3 {
		t.Fatalf("got %d reports, want 3", len(reps))
	}
	keep, scale, deadline := reps[0], reps[1], reps[2]

	if keep.ScaleDownIdleUS != 0 || scale.ScaleDownIdleUS == 0 || deadline.ScaleDownIdleUS == 0 {
		t.Fatalf("variant config echoes wrong: %d / %d / %d",
			keep.ScaleDownIdleUS, scale.ScaleDownIdleUS, deadline.ScaleDownIdleUS)
	}
	if scale.VMsReleasedIdle == 0 {
		t.Fatalf("scale-down variant released no VMs:\n%s", scale)
	}
	if scale.VMHours >= keep.VMHours {
		t.Errorf("scale-down VM-hours %.3f not strictly below keep-forever %.3f",
			scale.VMHours, keep.VMHours)
	}
	if scale.SLOAttainment < keep.SLOAttainment {
		t.Errorf("scale-down attainment %.3f below keep-forever %.3f",
			scale.SLOAttainment, keep.SLOAttainment)
	}
	if scale.VMScaledownSavedUSD <= 0 {
		t.Errorf("scale-down saved $%.4f, want > 0", scale.VMScaledownSavedUSD)
	}
	if deadline.SLOViolations > scale.SLOViolations {
		t.Errorf("deadline admission raised violations: %d > %d",
			deadline.SLOViolations, scale.SLOViolations)
	}
	if deadline.SLOAttainment < scale.SLOAttainment {
		t.Errorf("deadline attainment %.3f below greedy %.3f",
			deadline.SLOAttainment, scale.SLOAttainment)
	}
	if deadline.TotalUSD > keep.TotalUSD {
		t.Errorf("deadline+scale-down cost $%.4f above keep-forever $%.4f",
			deadline.TotalUSD, keep.TotalUSD)
	}
	for _, j := range deadline.JobReports {
		if j.Shed != "" && (j.StartUS != 0 || j.VMTasks+j.LambdaTasks != 0) {
			t.Errorf("shed job %d shows execution: %+v", j.ID, j)
		}
	}

	table := FormatClusterElasticity(reps)
	for _, want := range []string{"keep-forever", "greedy", "deadline", "vm-hours"} {
		if !strings.Contains(table, want) {
			t.Errorf("elasticity table missing %q:\n%s", want, table)
		}
	}
}
