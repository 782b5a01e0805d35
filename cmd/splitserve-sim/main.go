// Command splitserve-sim runs one {workload, scenario} combination and
// dumps the result with its execution timeline — the tool to poke at
// SplitServe's behaviour interactively:
//
//	splitserve-sim -workload pagerank -scenario hybrid-segue -r 16 -small 3 -segue-at 45s
//	splitserve-sim -workload tpcds-q16 -scenario qubole -r 32
//	splitserve-sim -workload kmeans -scenario spark-small -r 16 -small 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"splitserve"
	"splitserve/internal/cliutil"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "pagerank", strings.Join(cliutil.WorkloadNames, " | "))
		scenario = flag.String("scenario", "hybrid", strings.Join(cliutil.ScenarioNames(), " | "))
		r        = flag.Int("r", 0, "required cores R (0 = workload default)")
		small    = flag.Int("small", 0, "free VM cores r (0 = max(1, R/4))")
		segueAt  = flag.Duration("segue-at", 45*time.Second, "when segue capacity appears")
		lambdaTO = flag.Duration("lambda-timeout", 0, "spark.lambda.executor.timeout (0 = default)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		width    = flag.Int("width", 100, "timeline width")
		report   = flag.String("report", "", "emit only the telemetry report: json | prom")
		eventLog = flag.String("eventlog", "", cliutil.EventLogUsage)
		trace    = flag.String("trace", "", cliutil.TraceUsage)
		attribF  = flag.String("attrib", "", cliutil.AttribUsage)
	)
	perf := cliutil.RegisterPerfFlags(nil)
	flag.Parse()

	kind, err := cliutil.ParseScenario(*scenario)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-sim:", err)
		return 2
	}
	if err := cliutil.ValidateReport(*report); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-sim:", err)
		return 2
	}
	w, err := cliutil.BuildWorkload(*workload, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-sim:", err)
		return 2
	}
	perf.Label = *scenario + "/" + *workload
	prof, err := perf.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-sim:", err)
		return 2
	}
	defer perf.Stop()

	opts := []splitserve.Option{
		splitserve.WithSeed(*seed),
		splitserve.WithSegueAt(*segueAt),
	}
	if prof != nil {
		opts = append(opts, splitserve.WithSelfProfile(prof))
	}
	if *lambdaTO > 0 {
		opts = append(opts, splitserve.WithLambdaTimeout(*lambdaTO))
	}
	opts = append(opts, splitserve.WithCores(cliutil.Cores(w, *r, *small)))

	res, err := splitserve.Run(kind, w, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-sim:", err)
		return 1
	}
	if err := cliutil.WriteEventLog(*eventLog, res.Events()); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-sim:", err)
		return 1
	}
	if err := cliutil.WriteTrace(*trace, res.Events()); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-sim:", err)
		return 1
	}
	if err := cliutil.WriteAttrib(*attribF, res.Events()); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-sim:", err)
		return 1
	}
	if err := perf.WriteSnapshot(prof); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-sim:", err)
		return 1
	}
	switch *report {
	case "json":
		buf, err := res.ReportJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-sim:", err)
			return 1
		}
		os.Stdout.Write(buf)
		fmt.Println()
		return 0
	case "prom":
		if err := res.ReportPrometheus(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-sim:", err)
			return 1
		}
		return 0
	}
	writeSummary(os.Stdout, res)
	fmt.Print(res.Timeline(*width))
	return 0
}

// writeSummary prints the plain-text result: the headline, the answer, the
// work distribution and one cost line per kind, in sorted kind order so
// that same-seed runs print the same bytes.
func writeSummary(w io.Writer, res *splitserve.Result) {
	fmt.Fprintln(w, res)
	fmt.Fprintln(w, "answer:", res.Answer)
	fmt.Fprintf(w, "work distribution: VM %d tasks / %v busy, Lambda %d tasks / %v busy\n",
		res.VMTasks, res.VMBusy.Round(time.Millisecond),
		res.LambdaTasks, res.LambdaBusy.Round(time.Millisecond))
	kinds := make([]string, 0, len(res.CostByKind))
	for k := range res.CostByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "cost[%s] = $%.6f\n", k, res.CostByKind[k])
	}
}
