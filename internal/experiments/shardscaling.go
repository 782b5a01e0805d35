package experiments

import (
	"fmt"
	"strings"
	"time"

	"splitserve/internal/cluster"
	"splitserve/internal/shard"
	"splitserve/internal/simrand"
)

// ShardScaling runs one skewed multi-tenant job stream through the
// sharded control plane at 1, 2 and 4 shards on the same total pool. It
// makes the control-plane trade visible: sharding partitions the pool
// (so a hot tenant's shard can saturate while others idle), and
// work-stealing is what claws the stranded capacity back — the steal
// count, per-run SLO attainment and queue-wait tail tell whether it did.
// Deterministic in the seed, like every experiment here.
func ShardScaling(seed uint64) ([]*shard.Report, error) {
	const (
		jobs     = 18
		jobCores = 4
		tenants  = 5
	)
	arrivals, err := cluster.ParseArrivals("poisson:10s", jobs, seed)
	if err != nil {
		return nil, err
	}
	// Zipf tenant popularity: a couple of tenants dominate the stream,
	// the imbalance that makes per-shard saturation (and stealing) real.
	rng := simrand.New(seed ^ 0x5a4d)
	tenantOf := make([]string, jobs)
	for i := range tenantOf {
		tenantOf[i] = fmt.Sprintf("t%02d", rng.Zipf(1.2, tenants)-1)
	}

	cal := cluster.NewBaselineCache(seed)
	var out []*shard.Report
	for _, shards := range []int{1, 2, 4} {
		specs, err := MixSpecs([]string{"sparkpi"}, arrivals, uniformCores(jobs, jobCores), nil, seed, cal)
		if err != nil {
			return nil, fmt.Errorf("shard scaling: %w", err)
		}
		for i := range specs {
			specs[i].Tenant = tenantOf[i]
		}
		m, err := shard.New(shard.Config{
			Shards: shards,
			Cluster: cluster.Config{
				Jobs:      specs,
				PoolCores: 16,
				Policy:    cluster.FairShare(),
				Strategy:  cluster.StrategyQueue,
				Seed:      seed,
				Prof:      profiler,
			},
		})
		if err != nil {
			return nil, fmt.Errorf("shard scaling: %w", err)
		}
		rep, err := m.Run()
		if err != nil {
			return nil, fmt.Errorf("shard scaling: shards=%d: %w", shards, err)
		}
		out = append(out, rep)
	}
	return out, nil
}

// FormatShardScaling renders the sweep as a table.
func FormatShardScaling(reps []*shard.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s %6s %6s %5s %7s %7s %12s %12s %9s\n",
		"shards", "jobs", "done", "viol", "attain", "steals", "qwait-p99", "makespan", "cost")
	for _, r := range reps {
		fmt.Fprintf(&b, "%-7d %6d %6d %5d %6.1f%% %7d %12s %12s %8.2f$\n",
			r.Shards, r.Jobs, r.Completed, r.SLOViolations, 100*r.SLOAttainment, r.Steals,
			(time.Duration(r.QueueWaitP99US) * time.Microsecond).Round(time.Millisecond).String(),
			(time.Duration(r.MakespanUS) * time.Microsecond).Round(time.Millisecond).String(),
			r.TotalUSD)
	}
	return b.String()
}
