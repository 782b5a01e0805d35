package experiments

import (
	"fmt"
	"strings"
	"time"

	"splitserve/internal/cluster"
)

// ClusterElasticity measures the cost side of the paper's elasticity
// argument with real task-graph jobs: the same autoscaling job stream runs
// three times against one undersized shared pool —
//
//  1. keep-forever: procured VMs stay in the pool until the run ends (the
//     pre-elasticity behavior, and what naive autoscaling pays);
//  2. scale-down: procured VMs are released back to the provider after
//     `idle` of full idleness;
//  3. scale-down + deadline admission: additionally, jobs whose SLO the
//     fluid model deems unattainable are delayed or shed instead of being
//     admitted to miss.
//
// Scale-down should strictly lower VM-hours without hurting SLO
// attainment (the released instances were idle); deadline admission then
// trades shed jobs for attainment on the jobs that do run.
func ClusterElasticity(seed uint64, idle time.Duration) ([]*cluster.Report, error) {
	return runMixDay(seed,
		cluster.Config{Strategy: cluster.StrategyAutoscale, Admission: cluster.AdmissionGreedy},
		cluster.Config{Strategy: cluster.StrategyAutoscale, Admission: cluster.AdmissionGreedy, ScaleDownIdle: idle},
		cluster.Config{Strategy: cluster.StrategyAutoscale, Admission: cluster.AdmissionDeadline, ScaleDownIdle: idle},
	)
}

// FormatClusterElasticity renders the elasticity comparison as a table.
func FormatClusterElasticity(reports []*cluster.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %5s %5s %5s %7s %8s %8s %9s %9s\n",
		"variant", "jobs", "shed", "viol", "attain", "vm-hours", "saved-h", "saved$", "cost")
	for _, r := range reports {
		variant := r.Admission
		if r.ScaleDownIdleUS > 0 {
			variant += "+scaledown" +
				(time.Duration(r.ScaleDownIdleUS) * time.Microsecond).Round(time.Second).String()
		} else {
			variant += " keep-forever"
		}
		fmt.Fprintf(&b, "%-22s %5d %5d %5d %6.1f%% %8.3f %8.3f %8.4f$ %8.2f$\n",
			variant, r.Jobs, r.Shed, r.SLOViolations, 100*r.SLOAttainment,
			r.VMHours, r.VMHoursSaved, r.VMScaledownSavedUSD, r.TotalUSD)
	}
	return b.String()
}
