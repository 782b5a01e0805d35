package cliutil

import (
	"fmt"
	"sort"
	"strings"

	"splitserve"
)

// WorkloadNames is the accepted -workload vocabulary of an inline run,
// kept in sync with BuildWorkload.
var WorkloadNames = []string{
	"kmeans", "pagerank", "sparkpi", "tpcds-q5", "tpcds-q16", "tpcds-q94", "tpcds-q95",
}

var scenarioByName = map[string]splitserve.ScenarioKind{
	"spark-small":  splitserve.ScenarioSparkSmall,
	"spark-full":   splitserve.ScenarioSparkFull,
	"autoscale":    splitserve.ScenarioSparkAutoscale,
	"qubole":       splitserve.ScenarioQubole,
	"ss-vm":        splitserve.ScenarioSSFullVM,
	"ss-lambda":    splitserve.ScenarioSSLambda,
	"hybrid":       splitserve.ScenarioHybrid,
	"hybrid-segue": splitserve.ScenarioHybridSegue,
}

// ScenarioNames returns the accepted -scenario vocabulary, sorted.
func ScenarioNames() []string {
	names := make([]string, 0, len(scenarioByName))
	for n := range scenarioByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseScenario resolves a -scenario value.
func ParseScenario(name string) (splitserve.ScenarioKind, error) {
	kind, ok := scenarioByName[name]
	if !ok {
		return 0, fmt.Errorf("unknown scenario %q (accepted: %s)",
			name, strings.Join(ScenarioNames(), ", "))
	}
	return kind, nil
}

// BuildWorkload builds the -workload named name.
func BuildWorkload(name string, seed uint64) (splitserve.Workload, error) {
	switch {
	case name == "pagerank":
		return splitserve.PageRank(splitserve.PageRankOptions{Seed: seed}), nil
	case name == "kmeans":
		return splitserve.KMeans(splitserve.KMeansOptions{Seed: seed}), nil
	case name == "sparkpi":
		return splitserve.SparkPi(splitserve.SparkPiOptions{Seed: seed}), nil
	case strings.HasPrefix(name, "tpcds-"):
		return splitserve.TPCDSQuery(strings.TrimPrefix(name, "tpcds-")), nil
	default:
		return nil, fmt.Errorf("unknown workload %q (accepted: %s)",
			name, strings.Join(WorkloadNames, ", "))
	}
}

// Cores resolves the -r and -small flags for w. The required cores R are
// r, or w's default parallelism when r is not positive; the free VM cores
// are small, or max(1, R/4) when small is not positive. The floor matters:
// a scenario reads 0 free cores as "all of them".
func Cores(w splitserve.Workload, r, small int) (int, int) {
	if r <= 0 {
		r = w.DefaultParallelism()
	}
	if small <= 0 {
		small = max(1, r/4)
	}
	return r, small
}
