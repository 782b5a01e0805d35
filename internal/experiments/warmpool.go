package experiments

import (
	"fmt"
	"strings"
	"time"

	"splitserve/internal/attrib"
	"splitserve/internal/cluster"
	"splitserve/internal/workloads"
	"splitserve/internal/workloads/shufflereuse"
)

// NewShuffleReuse exposes the calibrated shuffle-reuse workload: one wide
// shuffle read several times over, the access pattern the warm-pool /tmp
// cache tier is built for.
func NewShuffleReuse(seed uint64) workloads.Workload {
	return shufflereuse.New(shufflereuse.DefaultConfig())
}

// Warm-pool sweep modes, in the order runs appear in each cell.
const (
	WarmModeVM   = "vm-autoscale"
	WarmModeCold = "cold-lambda"
	WarmModeWarm = "warm+tmp"
)

// WarmPoolRun is one substrate configuration of a sweep cell. Attrib is
// the causal attribution of the run's event log (observability layer 4):
// the per-cause blame decomposition that names what the substrate choice
// actually bought — e.g. the cold run's critical path carries
// lambda_cold_start time the warm run converts to warm_hit_saved.
type WarmPoolRun struct {
	Mode   string
	Report *cluster.Report
	Attrib *attrib.Report
}

// WarmPoolCell is one (arrival gap × shuffle reuse) point of the sweep:
// the same Poisson job stream run under VM autoscaling, cold-start Lambda
// bridging, and warm-pool Lambda bridging with the /tmp cache tier.
type WarmPoolCell struct {
	// Gap is the mean Poisson inter-arrival gap of the cell.
	Gap time.Duration
	// Reuse is how many actions each job runs over its shuffle.
	Reuse int
	Runs  []WarmPoolRun
}

// Run returns the cell's run for mode, or nil.
func (c *WarmPoolCell) Run(mode string) *WarmPoolRun {
	for i := range c.Runs {
		if c.Runs[i].Mode == mode {
			return &c.Runs[i]
		}
	}
	return nil
}

// WarmWins reports whether the warm-pool run beat BOTH alternatives at
// equal SLO attainment — the crossover criterion of the warm-pool
// experiment. A competitor is beaten either because it attains strictly
// less (it failed the SLO bar the warm pool clears, so its lower bill
// bought a worse service), or because it matched attainment and the warm
// run is strictly cheaper.
func (c *WarmPoolCell) WarmWins() bool {
	warm := c.Run(WarmModeWarm)
	if warm == nil {
		return false
	}
	w := warm.Report
	for _, mode := range []string{WarmModeVM, WarmModeCold} {
		comp := c.Run(mode)
		if comp == nil {
			return false
		}
		r := comp.Report
		if r.SLOAttainment < w.SLOAttainment {
			continue // failed the SLO bar
		}
		if r.SLOAttainment > w.SLOAttainment || r.TotalUSD <= w.TotalUSD {
			return false
		}
	}
	return true
}

// WarmPoolSweepConfig parameterises the crossover sweep.
type WarmPoolSweepConfig struct {
	// Jobs per cell (default 6).
	Jobs int
	// Gaps are the mean Poisson inter-arrival gaps swept (default
	// 10s, 60s, 240s: saturated → sparse).
	Gaps []time.Duration
	// Reuses are the per-job shuffle read counts swept (default 1, 6).
	Reuses []int
	// Rows / RowBytes shape the per-job shuffle (defaults 6000 rows ×
	// 8 KiB across 8 partitions ≈ 375 MiB, all keys distinct): big
	// enough that a Lambda executor's repeat reads are egress-bound,
	// which is exactly the regime the /tmp cache tier targets.
	Rows     int
	RowBytes int
	// PoolCores sizes the shared base VM pool (default 8 = JobCores: a
	// lone job is fully provisioned, so shortfall — and with it the
	// substrate choice — appears only under contention).
	PoolCores int
	// JobCores is the per-job full-provisioning demand R (default 8).
	JobCores int
	// WarmPool is the provisioned-concurrency target of the warm runs
	// (default max(JobCores-PoolCores, 3/4 JobCores); target tracking
	// resizes it from there).
	WarmPool int
	// SLOFactor (default 2.5: tight enough that waiting out a VM boot
	// breaks the deadline, loose enough that a covered shortfall meets
	// it).
	SLOFactor float64
	// VMBoot pins the boot delay of autoscale-procured VMs (default the
	// provider's nominal 110 s startup) so the sweep compares substrates,
	// not boot-delay draws.
	VMBoot time.Duration
}

func (c WarmPoolSweepConfig) withDefaults() WarmPoolSweepConfig {
	if c.Jobs <= 0 {
		c.Jobs = 6
	}
	if len(c.Gaps) == 0 {
		c.Gaps = []time.Duration{10 * time.Second, 60 * time.Second, 240 * time.Second}
	}
	if len(c.Reuses) == 0 {
		c.Reuses = []int{1, 6}
	}
	if c.Rows <= 0 {
		c.Rows = 6000
	}
	if c.RowBytes <= 0 {
		c.RowBytes = 8192
	}
	if c.JobCores <= 0 {
		c.JobCores = 8
	}
	if c.PoolCores <= 0 {
		c.PoolCores = c.JobCores
	}
	if c.WarmPool <= 0 {
		c.WarmPool = c.JobCores - c.PoolCores
		if c.WarmPool <= 0 {
			c.WarmPool = 3 * c.JobCores / 4
		}
	}
	if c.SLOFactor <= 0 {
		c.SLOFactor = 2.5
	}
	if c.VMBoot <= 0 {
		c.VMBoot = 110 * time.Second
	}
	return c
}

// WarmPoolComparison runs the crossover sweep: for every (gap × reuse)
// cell the same seeded Poisson stream of shuffle-reuse jobs is run three
// times — VM autoscaling, cold-start Lambda bridging, and a warm pool
// with the /tmp cache tier — so cost and SLO deltas within a cell are
// purely the substrate's doing. It answers the experiment's question: at
// what arrival rate and shuffle-reuse ratio does warm+cached Lambda beat
// both alternatives on dollars at equal SLO attainment.
func WarmPoolComparison(seed uint64, cfg WarmPoolSweepConfig) ([]WarmPoolCell, error) {
	cfg = cfg.withDefaults()

	workload := func(reuse int, seed uint64) workloads.Workload {
		wc := shufflereuse.DefaultConfig()
		wc.RowsPerPartition = cfg.Rows
		wc.RowBytes = cfg.RowBytes
		// All keys distinct: the map-side combiner must not collapse the
		// shuffle, or the repeat reads the sweep is about become trivial.
		wc.Keys = wc.Partitions * cfg.Rows
		wc.Reuse = reuse
		return shufflereuse.New(wc)
	}

	// One baseline per reuse count: all cells share the workload shape.
	cal := cluster.NewBaselineCache(seed)
	var cells []WarmPoolCell
	for _, reuse := range cfg.Reuses {
		name := fmt.Sprintf("shufflereuse-r%d", reuse)
		base, err := cal.Get(name, cfg.JobCores, func() workloads.Workload { return workload(reuse, seed) })
		if err != nil {
			return nil, fmt.Errorf("warmpool sweep: %w", err)
		}
		for _, gap := range cfg.Gaps {
			arrivals, err := cluster.ParseArrivals(fmt.Sprintf("poisson:%s", gap), cfg.Jobs, seed)
			if err != nil {
				return nil, fmt.Errorf("warmpool sweep: %w", err)
			}
			cell := WarmPoolCell{Gap: gap, Reuse: reuse}
			for _, mode := range []string{WarmModeVM, WarmModeCold, WarmModeWarm} {
				specs := make([]cluster.JobSpec, cfg.Jobs)
				for i, at := range arrivals {
					specs[i] = cluster.JobSpec{
						Name:     name,
						Workload: workload(reuse, seed+uint64(i)),
						Cores:    cfg.JobCores,
						Arrival:  at,
						Baseline: base,
					}
				}
				cc := cluster.Config{
					Jobs:           specs,
					PoolCores:      cfg.PoolCores,
					Policy:         cluster.FairShare(),
					Strategy:       cluster.StrategyBridge,
					SLOFactor:      cfg.SLOFactor,
					VMBootOverride: cfg.VMBoot,
					Seed:           seed,
					Alloc:          "fixed",
				}
				switch mode {
				case WarmModeVM:
					cc.Strategy = cluster.StrategyAutoscale
				case WarmModeWarm:
					cc.WarmPool = cfg.WarmPool
					cc.TmpCache = true
				}
				s, err := cluster.New(cc)
				if err != nil {
					return nil, fmt.Errorf("warmpool sweep %s gap=%s reuse=%d: %w", mode, gap, reuse, err)
				}
				rep, err := s.Run()
				if err != nil {
					return nil, fmt.Errorf("warmpool sweep %s gap=%s reuse=%d: %w", mode, gap, reuse, err)
				}
				cell.Runs = append(cell.Runs, WarmPoolRun{
					Mode:   mode,
					Report: rep,
					Attrib: attrib.Analyze(s.Events().Events()),
				})
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// FormatWarmPoolComparison renders the sweep as one table per cell plus a
// crossover summary line. The winning substrate of each cell (cheapest at
// equal-or-better SLO attainment) is starred.
func FormatWarmPoolComparison(cells []WarmPoolCell) string {
	var b strings.Builder
	var crossed []string
	for _, cell := range cells {
		fmt.Fprintf(&b, "arrival gap %s, shuffle reads ×%d:\n", cell.Gap, cell.Reuse)
		fmt.Fprintf(&b, "  %-14s %6s %9s %9s %10s %9s %9s %9s %16s\n",
			"mode", "attain", "makespan", "cost", "lambda", "la-idle", "warm-hit", "tmp-hit", "top cause")
		for _, run := range cell.Runs {
			r := run.Report
			star := " "
			if run.Mode == WarmModeWarm && cell.WarmWins() {
				star = "*"
			}
			top := "-"
			if run.Attrib != nil {
				if c, _ := run.Attrib.Totals.Dominant(); c != "" {
					top = string(c)
				}
			}
			fmt.Fprintf(&b, " %s%-14s %5.1f%% %9s %8.2f$ %9.4f$ %8.4f$ %9d %9d %16s\n",
				star, run.Mode, 100*r.SLOAttainment,
				(time.Duration(r.MakespanUS) * time.Microsecond).Round(time.Second),
				r.TotalUSD, r.LambdaUSD, r.LambdaIdleUSD, r.WarmHits, r.TmpCacheHits, top)
		}
		if cell.WarmWins() {
			crossed = append(crossed, fmt.Sprintf("gap<=%s,reuse>=%d", cell.Gap, cell.Reuse))
		}
	}
	if len(crossed) > 0 {
		fmt.Fprintf(&b, "crossover: warm+tmp cheapest at equal-or-better SLO attainment in %d/%d cells (%s)\n",
			len(crossed), len(cells), strings.Join(crossed, "; "))
	} else {
		fmt.Fprintf(&b, "crossover: warm+tmp never cheapest in this sweep\n")
	}
	return b.String()
}
