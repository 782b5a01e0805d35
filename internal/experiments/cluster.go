package experiments

import (
	"fmt"
	"strings"
	"time"

	"splitserve/internal/cluster"
)

// ClusterComparison reproduces the fluid day model's strategy comparison
// (autoscale.CompareDayStrategies) with real task-graph jobs: one mixed
// stream of SparkPi, PageRank and K-means jobs — Poisson arrivals on the
// virtual clock — runs three times against the same shared 8-core pool,
// once per shortfall strategy. The fluid model predicts
// Queue > Autoscale > Bridge on SLO violations; this scenario shows the
// ordering surviving contact with real DAGs, stragglers and stage
// barriers (cross-checked in internal/cluster's tests).
func ClusterComparison(seed uint64) ([]*cluster.Report, error) {
	return runMixDay(seed,
		cluster.Config{Strategy: cluster.StrategyQueue},
		cluster.Config{Strategy: cluster.StrategyAutoscale},
		cluster.Config{Strategy: cluster.StrategyBridge},
	)
}

// The mixed day ClusterComparison, ClusterElasticity and
// CostManagerComparison run: six jobs cycling SparkPi, PageRank and
// K-means with Poisson arrivals 30 s apart on average, on one fair-shared
// 8-core pool, with deadlines at 1.5x each job's baseline.
const (
	dayJobs  = 6
	dayCores = 8
	daySLO   = 1.5
)

var dayMix = []string{"sparkpi", "pagerank", "kmeans"}

// mixDay is one seed's mixed day: its arrivals, and the baselines every
// variant of it shares.
type mixDay struct {
	seed     uint64
	arrivals []time.Duration
	cal      *cluster.BaselineCache
}

func newMixDay(seed uint64) (*mixDay, error) {
	arrivals, err := cluster.ParseArrivals("poisson:30s", dayJobs, seed)
	if err != nil {
		return nil, err
	}
	return &mixDay{seed: seed, arrivals: arrivals, cal: cluster.NewBaselineCache(seed)}, nil
}

// run runs the day once under cfg, which sets the variant's strategy and
// whatever else it compares. cores sizes the jobs (nil: dayCores each)
// and picks carries the cost-manager decisions behind them.
func (d *mixDay) run(cfg cluster.Config, cores []int, picks []*cluster.CostPick) (*cluster.Report, error) {
	if cores == nil {
		cores = uniformCores(dayJobs, dayCores)
	}
	specs, err := MixSpecs(dayMix, d.arrivals, cores, picks, d.seed, d.cal)
	if err != nil {
		return nil, err
	}
	cfg.Jobs, cfg.PoolCores, cfg.Policy, cfg.SLOFactor, cfg.Seed = specs, dayCores, cluster.FairShare(), daySLO, d.seed
	s, err := cluster.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("mixed day %s: %w", cfg.Strategy, err)
	}
	rep, err := s.Run()
	if err != nil {
		return nil, fmt.Errorf("mixed day %s: %w", cfg.Strategy, err)
	}
	return rep, nil
}

// runMixDay runs the mixed day of seed once per variant, every job at
// dayCores.
func runMixDay(seed uint64, variants ...cluster.Config) ([]*cluster.Report, error) {
	d, err := newMixDay(seed)
	if err != nil {
		return nil, err
	}
	var out []*cluster.Report
	for _, cfg := range variants {
		rep, err := d.run(cfg, nil, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// FormatClusterComparison renders the comparison as a table.
func FormatClusterComparison(reports []*cluster.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %5s %5s %5s %10s %8s %8s %8s %9s\n",
		"strategy", "jobs", "viol", "fail", "p99wait", "stretch", "util", "la-share", "cost")
	for _, r := range reports {
		fmt.Fprintf(&b, "%-14s %5d %5d %5d %10s %7.2fx %7.1f%% %7.1f%% %8.2f$\n",
			r.Strategy, r.Jobs, r.SLOViolations, r.Failed,
			(time.Duration(r.QueueWaitP99US) * time.Microsecond).Round(time.Millisecond),
			r.MeanStretch, 100*r.CoreUtilization, 100*r.LambdaShare, r.TotalUSD)
	}
	return b.String()
}
