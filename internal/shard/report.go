package shard

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"splitserve/internal/autoscale"
	"splitserve/internal/cluster"
)

// SchemaV1 identifies the merged sharded-run report layout.
const SchemaV1 = "splitserve-shard/v1"

// ShardLine is one shard's row in the merged report.
type ShardLine struct {
	Shard     int `json:"shard"`
	PoolCores int `json:"pool_cores"`
	// Jobs counts jobs the shard actually ran and reported (stolen-away
	// jobs count on their destination); Submitted is the tenant-hash
	// placement before stealing.
	Submitted     int     `json:"submitted"`
	Jobs          int     `json:"jobs"`
	Completed     int     `json:"completed"`
	Failed        int     `json:"failed"`
	Shed          int     `json:"shed"`
	SLOViolations int     `json:"slo_violations"`
	SLOAttainment float64 `json:"slo_attainment"`
	// StolenAway / StolenIn count work-steal migrations out of and into
	// this shard.
	StolenAway     int     `json:"stolen_away"`
	StolenIn       int     `json:"stolen_in"`
	QueueWaitP99US int64   `json:"queue_wait_p99_us"`
	MakespanUS     int64   `json:"makespan_us"`
	CostUSD        float64 `json:"cost_usd"`
}

// TenantLine is one tenant's rollup across all shards it ran on.
type TenantLine struct {
	Tenant string `json:"tenant"`
	// HomeShard is where the tenant's jobs hash; stolen jobs may have run
	// elsewhere, but accounting follows the job, not the shard.
	HomeShard       int     `json:"home_shard"`
	Jobs            int     `json:"jobs"`
	Completed       int     `json:"completed"`
	Failed          int     `json:"failed"`
	Shed            int     `json:"shed"`
	SLOViolations   int     `json:"slo_violations"`
	SLOAttainment   float64 `json:"slo_attainment"`
	QueueWaitMeanUS int64   `json:"queue_wait_mean_us"`
	QueueWaitP99US  int64   `json:"queue_wait_p99_us"`
	CostUSD         float64 `json:"cost_usd"`
}

// Report is the merged outcome of a sharded run: global aggregates, the
// per-shard and per-tenant tables, and the underlying cluster reports in
// shard order (nil entries for shards whose partition was empty).
type Report struct {
	Schema   string `json:"schema"`
	Shards   int    `json:"shards"`
	Stealing bool   `json:"stealing"`
	Seed     uint64 `json:"seed"`
	// PoolCores is the total across shards (each shard owns an equal
	// slice).
	PoolCores int    `json:"pool_cores"`
	Policy    string `json:"policy"`
	Strategy  string `json:"strategy"`

	Jobs          int `json:"jobs"`
	Completed     int `json:"completed"`
	Failed        int `json:"failed"`
	Shed          int `json:"shed"`
	Delayed       int `json:"delayed"`
	SLOViolations int `json:"slo_violations"`
	// SLOAttainment is (Completed − SLOViolations) / Jobs over the whole
	// run; the per-tenant lines partition the same numerator, so
	// Σ_t (completed_t − violations_t) == Completed − SLOViolations.
	SLOAttainment float64 `json:"slo_attainment"`
	// Steals counts queued-job migrations between shards.
	Steals int `json:"steals"`

	MakespanUS      int64 `json:"makespan_us"`
	QueueWaitMeanUS int64 `json:"queue_wait_mean_us"`
	QueueWaitP50US  int64 `json:"queue_wait_p50_us"`
	QueueWaitP99US  int64 `json:"queue_wait_p99_us"`

	VMHours  float64 `json:"vm_hours"`
	TotalUSD float64 `json:"total_usd"`

	PerShard  []ShardLine  `json:"per_shard"`
	PerTenant []TenantLine `json:"per_tenant"`

	ClusterReports []*cluster.Report `json:"cluster_reports"`
}

func (m *Manager) buildReport(reps []*cluster.Report) *Report {
	r := &Report{
		Schema:    SchemaV1,
		Shards:    m.cfg.Shards,
		Stealing:  m.cfg.Shards > 1,
		Seed:      m.cfg.Cluster.Seed,
		PoolCores: m.cfg.Cluster.PoolCores,

		ClusterReports: reps,
	}

	type tenantAcc struct {
		line  TenantLine
		waits []int64
	}
	tenants := make(map[string]*tenantAcc)
	var allWaits []int64

	for i, cr := range reps {
		st := m.shards[i]
		line := ShardLine{
			Shard:      i,
			PoolCores:  st.poolCores,
			Submitted:  st.submitted,
			StolenAway: st.stealsOut,
			StolenIn:   st.stealsIn,
		}
		r.Steals += st.stealsOut
		if cr != nil {
			if r.Policy == "" {
				r.Policy, r.Strategy = cr.Policy, cr.Strategy
			}
			line.Jobs = cr.Jobs
			line.Completed = cr.Completed
			line.Failed = cr.Failed
			line.Shed = cr.Shed
			line.SLOViolations = cr.SLOViolations
			line.SLOAttainment = cr.SLOAttainment
			line.QueueWaitP99US = cr.QueueWaitP99US
			line.MakespanUS = cr.MakespanUS
			line.CostUSD = cr.TotalUSD

			r.Jobs += cr.Jobs
			r.Completed += cr.Completed
			r.Failed += cr.Failed
			r.Shed += cr.Shed
			r.Delayed += cr.Delayed
			r.SLOViolations += cr.SLOViolations
			if cr.MakespanUS > r.MakespanUS {
				r.MakespanUS = cr.MakespanUS
			}
			r.VMHours += cr.VMHours
			r.TotalUSD += cr.TotalUSD

			for _, jr := range cr.JobReports {
				ta := tenants[jr.Tenant]
				if ta == nil {
					ta = &tenantAcc{line: TenantLine{
						Tenant:    jr.Tenant,
						HomeShard: ShardOf(jr.Tenant, m.cfg.Shards),
					}}
					tenants[jr.Tenant] = ta
				}
				ta.line.Jobs++
				ta.line.CostUSD += jr.CostUSD
				switch {
				case jr.Shed != "":
					ta.line.Shed++
				case jr.Failed != "":
					ta.line.Failed++
				default:
					ta.line.Completed++
					if jr.SLOViolated {
						ta.line.SLOViolations++
					}
					ta.waits = append(ta.waits, jr.QueueWaitUS)
					allWaits = append(allWaits, jr.QueueWaitUS)
				}
			}
		}
		r.PerShard = append(r.PerShard, line)
	}

	if r.Jobs > 0 {
		r.SLOAttainment = float64(r.Completed-r.SLOViolations) / float64(r.Jobs)
	}
	r.QueueWaitMeanUS, r.QueueWaitP50US, r.QueueWaitP99US = waitStats(allWaits)

	names := make([]string, 0, len(tenants))
	for name := range tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ta := tenants[name]
		if ta.line.Jobs > 0 {
			ta.line.SLOAttainment = float64(ta.line.Completed-ta.line.SLOViolations) / float64(ta.line.Jobs)
		}
		ta.line.QueueWaitMeanUS, _, ta.line.QueueWaitP99US = waitStats(ta.waits)
		r.PerTenant = append(r.PerTenant, ta.line)
	}
	return r
}

// waitStats returns mean, p50 and p99 of queue waits in microseconds.
func waitStats(waits []int64) (mean, p50, p99 int64) {
	if len(waits) == 0 {
		return 0, 0, 0
	}
	sorted := append([]int64(nil), waits...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	var sum int64
	for _, w := range sorted {
		sum += w
	}
	return sum / int64(len(sorted)), autoscale.Quantile(sorted, 0.50), autoscale.Quantile(sorted, 0.99)
}

// JSON renders the report deterministically (same seed and shard count →
// same bytes).
func (r *Report) JSON() ([]byte, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// String renders a human summary: global aggregates, then the per-shard
// and per-tenant tables.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shard: %d shards (stealing=%v) policy=%s strategy=%s pool=%d cores seed=%d\n",
		r.Shards, r.Stealing, r.Policy, r.Strategy, r.PoolCores, r.Seed)
	fmt.Fprintf(&b, "jobs %d (completed %d, failed %d, shed %d, delayed %d), SLO violations %d, attainment %.1f%%, steals %d\n",
		r.Jobs, r.Completed, r.Failed, r.Shed, r.Delayed, r.SLOViolations, 100*r.SLOAttainment, r.Steals)
	fmt.Fprintf(&b, "makespan %s; queue wait mean %s p50 %s p99 %s; vm-hours %.3f; cost $%.2f\n",
		time.Duration(r.MakespanUS)*time.Microsecond,
		time.Duration(r.QueueWaitMeanUS)*time.Microsecond,
		time.Duration(r.QueueWaitP50US)*time.Microsecond,
		time.Duration(r.QueueWaitP99US)*time.Microsecond,
		r.VMHours, r.TotalUSD)
	fmt.Fprintf(&b, "%-6s %6s %6s %5s %5s %5s %5s %5s %7s %6s %6s %11s %9s\n",
		"shard", "cores", "subm", "jobs", "done", "fail", "shed", "viol", "attain", "out", "in", "qwait-p99", "cost")
	for _, s := range r.PerShard {
		fmt.Fprintf(&b, "s%-5d %6d %6d %5d %5d %5d %5d %5d %6.1f%% %6d %6d %11s %8.4f$\n",
			s.Shard, s.PoolCores, s.Submitted, s.Jobs, s.Completed, s.Failed, s.Shed,
			s.SLOViolations, 100*s.SLOAttainment, s.StolenAway, s.StolenIn,
			(time.Duration(s.QueueWaitP99US) * time.Microsecond).Round(time.Millisecond).String(),
			s.CostUSD)
	}
	fmt.Fprintf(&b, "%-10s %5s %5s %5s %5s %5s %5s %7s %11s %11s %9s\n",
		"tenant", "home", "jobs", "done", "fail", "shed", "viol", "attain", "qwait-mean", "qwait-p99", "cost")
	for _, t := range r.PerTenant {
		name := t.Tenant
		if name == "" {
			name = "-"
		}
		fmt.Fprintf(&b, "%-10s s%-4d %5d %5d %5d %5d %5d %6.1f%% %11s %11s %8.4f$\n",
			name, t.HomeShard, t.Jobs, t.Completed, t.Failed, t.Shed, t.SLOViolations,
			100*t.SLOAttainment,
			(time.Duration(t.QueueWaitMeanUS) * time.Microsecond).Round(time.Millisecond).String(),
			(time.Duration(t.QueueWaitP99US) * time.Microsecond).Round(time.Millisecond).String(),
			t.CostUSD)
	}
	return b.String()
}
