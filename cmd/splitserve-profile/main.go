// Command splitserve-profile reproduces the paper's offline workload
// profiling (Section 5.1, Figure 4): execution time and cost of PageRank
// versus degree of parallelism on all-Lambda or all-VM executors, the
// curves a cost manager consults to pick a job's core count.
//
//	splitserve-profile -substrate lambda
//	splitserve-profile -substrate vm -pages 50000 -iterations 3
//	splitserve-profile -report json
//
// With -out it instead profiles the cluster mix workloads on both
// substrates and writes the versioned costmgr profile file that
// `splitserve-cluster -cores auto` consumes:
//
//	splitserve-profile -out profiles.json
//	splitserve-profile -out profiles.json -workloads sparkpi,kmeans
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"splitserve/internal/cliutil"
	"splitserve/internal/eventlog"
	"splitserve/internal/experiments"
	"splitserve/internal/simclock"
)

// profilePoint is one {dataset, parallelism} sweep sample in -report json.
type profilePoint struct {
	Pages       int     `json:"pages"`
	Parallelism int     `json:"parallelism"`
	ExecTimeUS  int64   `json:"exec_time_us"`
	CostUSD     float64 `json:"cost_usd"`
	Optimal     bool    `json:"optimal"`
}

type profileReport struct {
	Substrate  string         `json:"substrate"`
	Iterations int            `json:"iterations"`
	Seed       uint64         `json:"seed"`
	Points     []profilePoint `json:"points"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		substrate  = flag.String("substrate", "lambda", "executor substrate: lambda or vm")
		pages      = flag.Int("pages", 0, "profile a single dataset size (0 = the paper's 25k/50k/100k sweep)")
		iterations = flag.Int("iterations", 3, "PageRank iterations")
		maxPar     = flag.Int("max-parallelism", 128, "largest degree of parallelism (powers of two from 1)")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		report     = flag.String("report", "", "emit the profile as a machine-readable report: json | prom")
		out        = flag.String("out", "", "write a costmgr profile file for the cluster mix workloads (skips the Figure 4 sweep)")
		workloadsF = flag.String("workloads", "", "comma-separated mix workloads to profile with -out (default: all)")
		eventLog   = flag.String("eventlog", "", cliutil.EventLogUsage)
		trace      = flag.String("trace", "", cliutil.TraceUsage)
	)
	perf := cliutil.RegisterPerfFlags(nil)
	flag.Parse()

	prof, err := perf.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-profile:", err)
		return 2
	}
	defer perf.Stop()
	// Sweep samples run through experiments.Run, which picks the collector
	// up from the package-level hook.
	experiments.SetProfiler(prof)
	writePerf := func() int {
		if err := perf.WriteSnapshot(prof); err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-profile:", err)
			return 1
		}
		return 0
	}

	if *out != "" {
		if code := runProfileOut(*out, *workloadsF, *seed, *eventLog, *trace); code != 0 {
			return code
		}
		return writePerf()
	}
	if *workloadsF != "" {
		fmt.Fprintln(os.Stderr, "splitserve-profile: -workloads only applies with -out")
		return 2
	}

	lambda := *substrate == "lambda"
	if !lambda && *substrate != "vm" {
		fmt.Fprintln(os.Stderr, "splitserve-profile: -substrate must be lambda or vm")
		return 2
	}
	if err := cliutil.ValidateReport(*report); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-profile:", err)
		return 2
	}

	// One shared bus across the whole sweep; each sample gets a distinct
	// app ID so the runs land on separate tracks in the trace.
	var bus *eventlog.Bus
	if *eventLog != "" || *trace != "" {
		bus = eventlog.NewBus(simclock.Epoch)
	}

	sizes := experiments.Figure4Sizes
	if *pages > 0 {
		sizes = []int{*pages}
	}

	human := *report == ""
	if human {
		fmt.Printf("PageRank profiling on all-%s executors (paper Figure 4%s)\n",
			*substrate, map[bool]string{true: "a", false: "b"}[lambda])
		fmt.Printf("%8s %12s %12s %12s %12s\n", "pages", "parallelism", "exec time", "cost USD", "$/run-vs-min")
	}
	var all []profilePoint
	for _, size := range sizes {
		pts, err := experiments.Figure4(lambda, *seed, []int{size}, *maxPar, *iterations, bus)
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-profile:", err)
			return 1
		}
		best := pts[0].ExecTime
		for _, p := range pts {
			if p.ExecTime < best {
				best = p.ExecTime
			}
		}
		for _, p := range pts {
			all = append(all, profilePoint{
				Pages: p.Pages, Parallelism: p.Parallelism,
				ExecTimeUS: p.ExecTime.Microseconds(), CostUSD: p.CostUSD,
				Optimal: p.ExecTime == best,
			})
			if !human {
				continue
			}
			marker := ""
			if p.ExecTime == best {
				marker = "  <- performance-optimal parallelism"
			}
			fmt.Printf("%8d %12d %12.1fs %12.4f %11.2fx%s\n",
				p.Pages, p.Parallelism, p.ExecTime.Seconds(), p.CostUSD,
				p.ExecTime.Seconds()/best.Seconds(), marker)
		}
		if human {
			fmt.Println()
		}
	}

	if err := cliutil.WriteEventLog(*eventLog, bus.Events()); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-profile:", err)
		return 1
	}
	if err := cliutil.WriteTrace(*trace, bus.Events()); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-profile:", err)
		return 1
	}

	switch *report {
	case "json":
		buf, err := json.MarshalIndent(profileReport{
			Substrate: *substrate, Iterations: *iterations, Seed: *seed, Points: all,
		}, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-profile:", err)
			return 1
		}
		os.Stdout.Write(buf)
		fmt.Println()
	case "prom":
		writeProm(os.Stdout, *substrate, all)
	}
	return writePerf()
}

// runProfileOut profiles the cluster mix workloads on both substrates
// and writes the versioned costmgr profile file -cores auto consumes.
func runProfileOut(path, workloadSpec string, seed uint64, eventLog, trace string) int {
	var names []string
	for _, n := range strings.Split(workloadSpec, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	var bus *eventlog.Bus
	if eventLog != "" || trace != "" {
		bus = eventlog.NewBus(simclock.Epoch)
	}
	f, err := experiments.BuildProfileFile(seed, names, nil, bus)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-profile:", err)
		return 1
	}
	buf, err := f.JSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-profile:", err)
		return 1
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-profile:", err)
		return 1
	}
	if err := cliutil.WriteEventLog(eventLog, bus.Events()); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-profile:", err)
		return 1
	}
	if err := cliutil.WriteTrace(trace, bus.Events()); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-profile:", err)
		return 1
	}
	points := 0
	for _, c := range f.Curves {
		points += len(c.Points)
	}
	fmt.Printf("wrote %s: %d curves, %d points (seed %d)\n", path, len(f.Curves), points, f.Seed)
	return 0
}

// writeProm renders the sweep as Prometheus gauges, one series per
// {pages, parallelism} sample.
func writeProm(w *os.File, substrate string, pts []profilePoint) {
	fmt.Fprintln(w, "# TYPE splitserve_profile_exec_time_seconds gauge")
	for _, p := range pts {
		fmt.Fprintf(w, "splitserve_profile_exec_time_seconds{substrate=%q,pages=\"%d\",parallelism=\"%d\"} %g\n",
			substrate, p.Pages, p.Parallelism, float64(p.ExecTimeUS)/1e6)
	}
	fmt.Fprintln(w, "# TYPE splitserve_profile_cost_usd gauge")
	for _, p := range pts {
		fmt.Fprintf(w, "splitserve_profile_cost_usd{substrate=%q,pages=\"%d\",parallelism=\"%d\"} %g\n",
			substrate, p.Pages, p.Parallelism, p.CostUSD)
	}
}
