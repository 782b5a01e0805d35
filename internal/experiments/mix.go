package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"splitserve/internal/cluster"
	"splitserve/internal/costmgr"
	"splitserve/internal/eventlog"
	"splitserve/internal/workloads"
)

// mixFactories is the calibrated workload mix the cluster tooling draws
// from; the names double as profile-curve keys, so `splitserve-profile
// -out` and `splitserve-cluster -cores auto` agree on vocabulary.
var mixFactories = map[string]func(seed uint64) workloads.Workload{
	"sparkpi":      NewSparkPi,
	"pagerank":     NewPageRank,
	"kmeans":       NewKMeans,
	"tpcds":        func(seed uint64) workloads.Workload { return NewTPCDSQuery("q95") },
	"shufflereuse": NewShuffleReuse,
}

// MixWorkload resolves a cluster-mix workload name to its calibrated
// factory.
func MixWorkload(name string) (func(seed uint64) workloads.Workload, bool) {
	mk, ok := mixFactories[name]
	return mk, ok
}

// MixNames lists the accepted mix workload names, sorted.
func MixNames() []string {
	names := make([]string, 0, len(mixFactories))
	for n := range mixFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ProfileParallelisms is the default ladder of profiled core counts: the
// powers of two the paper's Figure 4 sweeps, stopping where the cluster
// pool sizes top out.
var ProfileParallelisms = []int{1, 2, 4, 8, 16}

// BuildProfileFile profiles each named mix workload on both substrates
// (all-VM and all-Lambda SplitServe scenarios) across the given
// parallelism ladder and assembles the versioned costmgr profile file.
// Curves come out in (workload, substrate) sorted order so the file is
// byte-stable for a given seed. A nil bus skips event logging.
func BuildProfileFile(seed uint64, names []string, pars []int, bus *eventlog.Bus) (*costmgr.File, error) {
	if len(names) == 0 {
		names = MixNames()
	}
	if len(pars) == 0 {
		pars = ProfileParallelisms
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)

	f := &costmgr.File{Version: costmgr.Version, Seed: seed}
	for _, name := range sorted {
		mk, ok := mixFactories[name]
		if !ok {
			return nil, fmt.Errorf("profile: unknown workload %q (accepted: %s)",
				name, strings.Join(MixNames(), ", "))
		}
		for _, substrate := range []string{costmgr.SubstrateLambda, costmgr.SubstrateVM} {
			curve := costmgr.Curve{Workload: name, Substrate: substrate}
			for _, par := range pars {
				appID := fmt.Sprintf("profile-%s-%s-x%d", name, substrate, par)
				res, err := Run(profileScenario(substrate == costmgr.SubstrateLambda, par, seed, bus, appID), mk(seed))
				if err != nil {
					return nil, fmt.Errorf("profile %s/%s x%d: %w", name, substrate, par, err)
				}
				curve.Points = append(curve.Points, costmgr.Point{
					Parallelism: par,
					ExecTimeUS:  res.ExecTime.Microseconds(),
					CostUSD:     res.CostUSD,
				})
			}
			f.Curves = append(f.Curves, curve)
		}
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("profile: built an invalid file: %w", err)
	}
	return f, nil
}

// CostManagerRun is one alloc configuration of the comparison: the label
// ("fixed" or a policy name), the cluster report it produced, and the
// per-job decisions that sized it (empty for fixed).
type CostManagerRun struct {
	Alloc     string
	Report    *cluster.Report
	Decisions []costmgr.Decision
}

// CostManagerComparison reruns the ClusterComparison job stream (six
// jobs, Poisson arrivals, shared 8-core pool, bridge strategy) once with
// the fixed per-job demand R=8 and once per cost-manager policy sizing
// each arriving job from the profile file. Same seed → the same arrival
// process and workloads in every run, so cost and SLO deltas are purely
// the allocator's doing.
func CostManagerComparison(seed uint64, profiles *costmgr.File) ([]CostManagerRun, error) {
	mgr, err := costmgr.NewManager(profiles)
	if err != nil {
		return nil, err
	}
	d, err := newMixDay(seed)
	if err != nil {
		return nil, err
	}
	rep, err := d.run(cluster.Config{Strategy: cluster.StrategyBridge, Alloc: "fixed"}, nil, nil)
	if err != nil {
		return nil, err
	}
	out := []CostManagerRun{{Alloc: "fixed", Report: rep}}

	req := costmgr.Request{MaxCores: dayCores, Fallback: dayCores, SLOFactor: daySLO}
	for _, pol := range []costmgr.Policy{costmgr.MinCost, costmgr.MinTime, costmgr.Knee} {
		cores, picks, decisions, err := AutoSize(mgr, pol, req, dayMix, dayJobs)
		if err != nil {
			return nil, fmt.Errorf("cost comparison %s: %w", pol, err)
		}
		rep, err := d.run(cluster.Config{Strategy: cluster.StrategyBridge, Alloc: pol.String()}, cores, picks)
		if err != nil {
			return nil, err
		}
		out = append(out, CostManagerRun{Alloc: pol.String(), Report: rep, Decisions: decisions})
	}
	return out, nil
}

// MixSpecs builds the round-robin job stream over mix: job i runs
// mix[i%len(mix)] seeded seed+i, arrives at arrivals[i] and demands
// cores[i]; picks[i], when picks is non-nil, is the cost-manager decision
// that sized it. Baselines come from cal, calibrated per (workload,
// cores).
func MixSpecs(mix []string, arrivals []time.Duration, cores []int, picks []*cluster.CostPick, seed uint64, cal *cluster.BaselineCache) ([]cluster.JobSpec, error) {
	specs := make([]cluster.JobSpec, len(arrivals))
	for i, at := range arrivals {
		name := mix[i%len(mix)]
		mk := mixFactories[name]
		base, err := cal.Get(name, cores[i], func() workloads.Workload { return mk(seed) })
		if err != nil {
			return nil, err
		}
		specs[i] = cluster.JobSpec{
			Name:     name,
			Workload: mk(seed + uint64(i)),
			Cores:    cores[i],
			Arrival:  at,
			Baseline: base,
		}
		if picks != nil {
			specs[i].Pick = picks[i]
		}
	}
	return specs, nil
}

// AutoSize lets the cost manager size each job of an n-job round-robin
// stream over mix under pol; req carries the pool, fallback, SLO and
// budget every job shares. It returns each job's cores, the pick its
// JobSpec carries and the decision behind both.
func AutoSize(mgr *costmgr.Manager, pol costmgr.Policy, req costmgr.Request, mix []string, n int) ([]int, []*cluster.CostPick, []costmgr.Decision, error) {
	cores := make([]int, n)
	picks := make([]*cluster.CostPick, n)
	decisions := make([]costmgr.Decision, n)
	for i := range decisions {
		req.Workload = mix[i%len(mix)]
		d, err := mgr.Decide(pol, req)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("job %d: %w", i, err)
		}
		cores[i], decisions[i] = d.Cores, d
		picks[i] = &cluster.CostPick{
			Policy:           d.Policy,
			PredictedRun:     d.PredictedRun(),
			PredictedCostUSD: d.PredictedCostUSD,
			Source:           d.Source,
		}
	}
	return cores, picks, decisions, nil
}

// uniformCores sizes n jobs at cores each.
func uniformCores(n, cores int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = cores
	}
	return out
}

// FormatCostManagerComparison renders the fixed-vs-auto sweep as a table:
// total cost, SLO attainment and VM-hours per alloc mode, plus the cost
// manager's mean absolute prediction error where predictions exist.
func FormatCostManagerComparison(runs []CostManagerRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %6s %5s %6s %10s %9s %9s %10s\n",
		"alloc", "jobs", "viol", "attain", "vm-hours", "cost", "la-cost", "|pred err|")
	for _, run := range runs {
		r := run.Report
		predErr := "-"
		if r.PredictedJobs > 0 {
			predErr = fmt.Sprintf("%.1f%%", 100*r.MeanAbsRunPredErr)
		}
		fmt.Fprintf(&b, "%-10s %6d %5d %5.1f%% %10.3f %8.2f$ %8.2f$ %10s\n",
			run.Alloc, r.Jobs, r.SLOViolations, 100*r.SLOAttainment,
			r.VMHours, r.TotalUSD, r.LambdaUSD, predErr)
	}
	for _, run := range runs {
		if len(run.Decisions) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s picks:", run.Alloc)
		for _, d := range run.Decisions {
			fmt.Fprintf(&b, " %s=%d", d.Workload, d.Cores)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
