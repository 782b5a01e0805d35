// Command splitserve-cluster runs the multi-job cluster scheduler: a
// stream of real task-graph jobs (Poisson, uniform, bursty, explicit
// trace or CSV tracefile arrivals) against one shared VM pool, with
// pluggable sharing policies and the paper's three shortfall strategies:
//
//	splitserve-cluster -jobs 12 -arrival poisson:45s -policy fair -strategy bridge
//	splitserve-cluster -mix sparkpi,tpcds -pool 32 -slo 1.3 -report json
//	splitserve-cluster -cores auto -profiles profiles.json -alloc min-cost
//	splitserve-cluster -warmpool 4 -tmpcache -mix shufflereuse
//	splitserve-cluster -warmsweep
//	splitserve-cluster -compare
//	splitserve-cluster -shards 4 -tenants 6 -jobs 40
//	splitserve-cluster -arrival tracefile:trace.csv -shards 4 -validate
//	splitserve-cluster -shardsweep
//
// With -cores auto the cost manager sizes each arriving job from the
// profile curves written by `splitserve-profile -out` instead of taking
// a fixed R. Same seed, same flags → byte-identical -report json output.
//
// Multi-tenant runs go through the sharded control plane: -tenants N
// labels the stream round-robin, a tracefile TENANT column labels it per
// row, and a production-shaped 4-column trace (tenant,arrival,runtime,
// cores — see internal/tracereplay) is replayed wholesale, with -validate
// checking the replay against the trace's per-tenant distributions.
// -shards N partitions the pool across N scheduler instances by tenant
// hash, with work-stealing between them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"splitserve/internal/cliutil"
	"splitserve/internal/cluster"
	"splitserve/internal/costmgr"
	"splitserve/internal/eventlog"
	"splitserve/internal/experiments"
	"splitserve/internal/shard"
	"splitserve/internal/tracereplay"
)

func mixNames() string { return strings.Join(experiments.MixNames(), ", ") }

// parseMix resolves a comma-separated workload mix against the
// experiments mix factories.
func parseMix(spec string) ([]string, error) {
	var out []string
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := experiments.MixWorkload(name); !ok {
			return nil, fmt.Errorf("unknown workload %q in -mix (accepted: %s)", name, mixNames())
		}
		out = append(out, name)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -mix (accepted: %s)", mixNames())
	}
	return out, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		jobs       = flag.Int("jobs", 8, "number of jobs in the stream")
		mixSpec    = flag.String("mix", "sparkpi,pagerank,kmeans", "comma-separated workload mix: "+mixNames())
		arrival    = flag.String("arrival", "poisson:45s", "arrival process: poisson:MEAN | uniform:GAP | bursty:KxGAP | trace:D1,D2,... | tracefile:PATH")
		policy     = flag.String("policy", "fair", "core-sharing policy: fifo | fair")
		strategy   = flag.String("strategy", "bridge", "shortfall strategy: queue | autoscale | bridge")
		slo        = flag.Float64("slo", 1.5, "SLO factor: deadline = factor x full-provisioning baseline")
		pool       = flag.Int("pool", 16, "shared VM pool size in cores")
		cores      = flag.String("cores", "8", "per-job core demand R, or \"auto\" to let the cost manager size each job (-profiles)")
		profiles   = flag.String("profiles", "", "profile file from `splitserve-profile -out` (required with -cores auto)")
		alloc      = flag.String("alloc", "min-cost", "cost-manager policy with -cores auto: min-cost | min-time | knee")
		budget     = flag.Float64("budget", 0, "per-job predicted-cost cap in USD for -alloc min-time (0 = uncapped)")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		report     = flag.String("report", "", "emit the run report: json | prom (default: summary table)")
		compare    = flag.Bool("compare", false, "run the day-long strategy comparison (mirrors splitserve-bench -daysim with real DAGs)")
		costcmp    = flag.Bool("costcompare", false, "run the fixed-R vs cost-manager comparison (requires -profiles)")
		scaledown  = flag.Duration("scaledown", 0, "release autoscale-procured VMs idle for this long back to the provider (0 disables)")
		admission  = flag.String("admission", "greedy", "admission policy: greedy | deadline (delay or shed jobs whose SLO is unattainable)")
		elastic    = flag.Bool("elastic", false, "run the elasticity comparison: keep-forever vs -scaledown vs -scaledown plus deadline admission")
		warmPool   = flag.Int("warmpool", 0, "provision this many warm Lambda environments (provisioned concurrency; 0 disables)")
		tmpCache   = flag.Bool("tmpcache", false, "serve repeat shuffle reads from warm environments' /tmp cache tier (needs -warmpool)")
		warmsweep  = flag.Bool("warmsweep", false, "run the warm-pool crossover sweep: VM autoscale vs cold Lambda vs warm+cached Lambda per arrival rate x shuffle reuse")
		coldstart  = flag.Bool("coldstarts", false, "model a cold ambient Lambda fleet: first invocations pay the full cold-start latency (default: always-warm ambient environments)")
		shards     = flag.Int("shards", 1, "control-plane shards: the pool splits evenly across this many scheduler instances keyed by tenant hash (>1 requires tenant labels)")
		tenants    = flag.Int("tenants", 0, "label the job stream with this many synthetic tenants (t00, t01, ... round-robin); 0 leaves it untenanted")
		validate   = flag.Bool("validate", false, "after replaying a production trace, check the merged report against the trace's per-tenant distributions (exit 1 on mismatch)")
		shardsweep = flag.Bool("shardsweep", false, "run the shard-scaling sweep: one skewed multi-tenant stream at 1, 2 and 4 shards")
		eventLog   = flag.String("eventlog", "", cliutil.EventLogUsage)
		trace      = flag.String("trace", "", cliutil.TraceUsage)
		attribF    = flag.String("attrib", "", cliutil.AttribUsage)
	)
	perf := cliutil.RegisterPerfFlags(nil)
	flag.Parse()

	if err := cliutil.ValidateReport(*report); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 2
	}

	// Validate the shared vocabulary flags up front — unknown names must
	// fail with the accepted list whichever subcommand runs, never fall
	// back silently.
	pol, err := cluster.PolicyByName(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 2
	}
	strat, err := cluster.StrategyByName(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 2
	}
	adm, err := cluster.AdmissionByName(*admission)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 2
	}
	allocPol, err := costmgr.PolicyByName(*alloc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 2
	}
	if *scaledown < 0 {
		fmt.Fprintf(os.Stderr, "splitserve-cluster: negative -scaledown %s (0 disables)\n", *scaledown)
		return 2
	}
	if *warmPool < 0 {
		fmt.Fprintf(os.Stderr, "splitserve-cluster: negative -warmpool %d (0 disables)\n", *warmPool)
		return 2
	}
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "splitserve-cluster: bad -shards %d (want >= 1)\n", *shards)
		return 2
	}
	if *pool%*shards != 0 {
		fmt.Fprintf(os.Stderr, "splitserve-cluster: -shards %d does not divide the %d-core pool evenly (accepted shard counts: %v)\n",
			*shards, *pool, shard.Divisors(*pool))
		return 2
	}
	if *tenants < 0 {
		fmt.Fprintf(os.Stderr, "splitserve-cluster: negative -tenants %d (0 leaves the stream untenanted)\n", *tenants)
		return 2
	}
	perf.Label = *strategy + "/" + *mixSpec
	prof, err := perf.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 2
	}
	defer perf.Stop()
	// The comparison subcommands run through experiments; route the
	// collector to them via the package-level hook.
	experiments.SetProfiler(prof)
	writePerf := func() int {
		if err := perf.WriteSnapshot(prof); err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
		return 0
	}

	if *compare {
		reps, err := experiments.ClusterComparison(*seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
		fmt.Println("== multi-job day: shortfall strategies on one shared pool, real DAGs ==")
		fmt.Print(experiments.FormatClusterComparison(reps))
		return writePerf()
	}

	if *elastic {
		idle := *scaledown
		if idle <= 0 {
			idle = 45 * time.Second
		}
		reps, err := experiments.ClusterElasticity(*seed, idle)
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
		fmt.Println("== elasticity: keep-forever vs idle scale-down vs deadline admission ==")
		fmt.Print(experiments.FormatClusterElasticity(reps))
		return writePerf()
	}

	if *warmsweep {
		cells, err := experiments.WarmPoolComparison(*seed, experiments.WarmPoolSweepConfig{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
		fmt.Println("== warm pool: VM autoscale vs cold Lambda vs warm+cached Lambda ==")
		fmt.Print(experiments.FormatWarmPoolComparison(cells))
		return writePerf()
	}

	if *shardsweep {
		reps, err := experiments.ShardScaling(*seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
		fmt.Println("== sharded control plane: one skewed multi-tenant stream at 1, 2 and 4 shards ==")
		fmt.Print(experiments.FormatShardScaling(reps))
		return writePerf()
	}

	if *costcmp {
		if *profiles == "" {
			fmt.Fprintln(os.Stderr, "splitserve-cluster: -costcompare requires -profiles (run splitserve-profile -out first)")
			return 2
		}
		f, err := costmgr.Load(*profiles)
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
		runs, err := experiments.CostManagerComparison(*seed, f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
		fmt.Println("== cost manager: fixed per-job R vs profile-driven allocation ==")
		fmt.Print(experiments.FormatCostManagerComparison(runs))
		return writePerf()
	}

	// Every run of the stream path shares this configuration; the job
	// specs and the allocation label fill in below.
	cfg := cluster.Config{
		PoolCores:     *pool,
		Policy:        pol,
		Strategy:      strat,
		SLOFactor:     *slo,
		Seed:          *seed,
		Admission:     adm,
		ScaleDownIdle: *scaledown,
		WarmPool:      *warmPool,
		TmpCache:      *tmpCache,
		ColdStarts:    *coldstart,
		Prof:          prof,
	}
	out := outputs{report: *report, eventLog: *eventLog, trace: *trace, attrib: *attribF}

	// A tracefile is read once, whichever of its two shapes it holds.
	var tr *tracereplay.Trace
	if path, ok := strings.CutPrefix(*arrival, "tracefile:"); ok {
		if tr, err = tracereplay.Load(path); err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 2
		}
		for _, w := range tr.Warnings {
			fmt.Fprintln(os.Stderr, "splitserve-cluster: warning:", w)
		}
	}
	// A production-shaped trace (tenant,arrival,runtime,cores) is replayed
	// wholesale: every row becomes a job sized to its traced runtime and
	// demand, so -jobs/-mix/-cores do not apply.
	if tr != nil && tr.Production() {
		specs, err := tracereplay.Specs(tr, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
		cfg.Jobs, cfg.Alloc = specs, "trace"
		if !*validate {
			tr = nil
		}
		if code := runSharded(*shards, cfg, out, tr); code != 0 {
			return code
		}
		return writePerf()
	}
	if *validate {
		fmt.Fprintln(os.Stderr, "splitserve-cluster: -validate requires a production trace (-arrival tracefile:PATH with tenant,arrival,runtime,cores rows)")
		return 2
	}

	mix, err := parseMix(*mixSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 2
	}

	auto := *cores == "auto"
	fixedCores := 0
	if !auto {
		fixedCores, err = strconv.Atoi(*cores)
		if err != nil || fixedCores < 1 {
			fmt.Fprintf(os.Stderr, "splitserve-cluster: bad -cores %q (want a positive integer or \"auto\")\n", *cores)
			return 2
		}
	} else if *profiles == "" {
		fmt.Fprintln(os.Stderr, "splitserve-cluster: -cores auto requires -profiles (run splitserve-profile -out first)")
		return 2
	}

	// An offset tracefile gives the arrivals (its length wins over -jobs)
	// and may pin some jobs' core demand and tenant per row; pinned cores
	// bypass both the fixed default and the cost manager.
	var arrivals []time.Duration
	var rows []tracereplay.Row
	if tr != nil {
		rows = tr.Rows
		for _, row := range rows {
			arrivals = append(arrivals, row.Arrival)
		}
	} else if arrivals, err = cluster.ParseArrivals(*arrival, *jobs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 2
	}

	coreList := make([]int, len(arrivals))
	picks := make([]*cluster.CostPick, len(arrivals))
	allocLabel := "fixed"
	if auto {
		f, err := costmgr.Load(*profiles)
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
		mgr, err := costmgr.NewManager(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
		allocLabel = allocPol.String()
		coreList, picks, _, err = experiments.AutoSize(mgr, allocPol, costmgr.Request{
			MaxCores:  *pool,
			Fallback:  8,
			SLOFactor: *slo,
			BudgetUSD: *budget,
		}, mix, len(arrivals))
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
			return 1
		}
	} else {
		for i := range coreList {
			coreList[i] = fixedCores
		}
	}
	for i, row := range rows {
		if row.Cores > 0 {
			coreList[i] = row.Cores
			picks[i] = nil
		}
	}

	specs, err := experiments.MixSpecs(mix, arrivals, coreList, picks, *seed, cluster.NewBaselineCache(*seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 1
	}

	// Tenant labels: a tracefile TENANT column wins per row; otherwise
	// -tenants N labels the stream round-robin.
	tenanted := false
	for i := range specs {
		if i < len(rows) && rows[i].Tenant != "" {
			specs[i].Tenant = rows[i].Tenant
		} else if *tenants > 0 {
			specs[i].Tenant = fmt.Sprintf("t%02d", i%*tenants)
		}
		if specs[i].Tenant != "" {
			tenanted = true
		}
	}
	if *shards > 1 && !tenanted {
		fmt.Fprintf(os.Stderr, "splitserve-cluster: -shards %d needs tenant labels (use -tenants N or a tracefile TENANT column)\n", *shards)
		return 2
	}
	// Any tenant label routes the run through the sharded control plane —
	// even at -shards 1 — so per-tenant reporting is uniform. Untenanted
	// single-shard runs keep the direct scheduler path below byte for byte.
	cfg.Jobs, cfg.Alloc = specs, allocLabel
	if tenanted {
		if code := runSharded(*shards, cfg, out, nil); code != 0 {
			return code
		}
		return writePerf()
	}

	s, err := cluster.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 1
	}
	rep, err := s.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 1
	}
	if err := out.write(s.Events().Events(), rep, s.WriteProm); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 1
	}
	return writePerf()
}

// outputs are the files and the report format a stream run writes.
type outputs struct {
	report, eventLog, trace, attrib string
}

// write writes the run's event log, Chrome trace and attribution, then
// its report: JSON, Prometheus text through prom, or the summary table.
func (o outputs) write(events []eventlog.Event, rep interface{ JSON() ([]byte, error) }, prom func(io.Writer) error) error {
	if err := cliutil.WriteEventLog(o.eventLog, events); err != nil {
		return err
	}
	if err := cliutil.WriteTrace(o.trace, events); err != nil {
		return err
	}
	if err := cliutil.WriteAttrib(o.attrib, events); err != nil {
		return err
	}
	switch o.report {
	case "json":
		buf, err := rep.JSON()
		if err != nil {
			return err
		}
		os.Stdout.Write(buf)
	case "prom":
		return prom(os.Stdout)
	default:
		fmt.Print(rep)
	}
	return nil
}

// runSharded drives a tenant-labelled stream through the sharded
// control plane and emits the merged report, event log and attribution.
// Given a production trace, it then checks the report against the
// trace's per-tenant distributions.
func runSharded(shards int, cfg cluster.Config, out outputs, validate *tracereplay.Trace) int {
	if out.report == "prom" {
		fmt.Fprintln(os.Stderr, "splitserve-cluster: -report prom is not supported on the sharded control-plane path (use json or the default table)")
		return 2
	}
	m, err := shard.New(shard.Config{Shards: shards, Cluster: cfg})
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 1
	}
	rep, err := m.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 1
	}
	if err := out.write(m.Events(), rep, nil); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-cluster:", err)
		return 1
	}
	// The validation table goes to stderr so -report json output stays
	// parseable; the exit code is the machine-readable verdict.
	if validate != nil {
		v := tracereplay.Validate(validate, rep)
		fmt.Fprint(os.Stderr, v)
		if !v.OK {
			return 1
		}
	}
	return 0
}
