// Command splitserve-bench regenerates every table and figure of the
// paper's evaluation (Section 5) as text output:
//
//	splitserve-bench -fig 1    # Lambda-vs-VM cost curve
//	splitserve-bench -fig 2    # diurnal forecast + provisioning policies
//	splitserve-bench -fig 4a   # PageRank profiling, all-Lambda
//	splitserve-bench -fig 4b   # PageRank profiling, all-VM
//	splitserve-bench -fig 5    # TPC-DS Q5/Q16/Q94/Q95 under all scenarios
//	splitserve-bench -fig 6    # PageRank-850k under all scenarios
//	splitserve-bench -fig 7    # execution timelines incl. segue
//	splitserve-bench -fig 8    # K-means with trial error bars
//	splitserve-bench -fig 9    # SparkPi
//	splitserve-bench -fig all  # everything
//	splitserve-bench -summary  # the paper's headline claims, re-measured
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"splitserve/internal/autoscale"
	"splitserve/internal/cliutil"
	"splitserve/internal/eventlog"
	"splitserve/internal/experiments"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 1,2,4a,4b,5,6,7,8,9,all")
		summary = flag.Bool("summary", false, "print the paper's headline claims, re-measured")
		daysim  = flag.Bool("daysim", false, "run the day-long inter-job provisioning comparison (Section 4.1)")
		seed    = flag.Uint64("seed", 1, "simulation seed")
		trials  = flag.Int("trials", 15, "trials for figure 8's error bars")
		report  = flag.String("report", "", "append each run's telemetry report to result figures: json | prom")
		evLog   = flag.String("eventlog", "", cliutil.EventLogUsage+" (collected from result-bearing figures 5, 6, 7, 9)")
		trace   = flag.String("trace", "", cliutil.TraceUsage+" (collected from result-bearing figures 5, 6, 7, 9)")
	)
	perf := cliutil.RegisterPerfFlags(nil)
	flag.Parse()
	if err := cliutil.ValidateReport(*report); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-bench:", err)
		return 2
	}
	prof, err := perf.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-bench:", err)
		return 2
	}
	defer perf.Stop()
	// Figures build their scenarios deep inside experiments; the
	// package-level hook routes the collector to every run.
	experiments.SetProfiler(prof)
	writePerf := func() int {
		if err := perf.WriteSnapshot(prof); err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-bench:", err)
			return 1
		}
		return 0
	}

	if *daysim {
		fmt.Println("== Day-long inter-job comparison (Section 4.1): one workday of 16-core jobs ==")
		for _, r := range autoscale.CompareDayStrategies(*seed) {
			fmt.Println(r)
		}
		return writePerf()
	}

	if *summary {
		if err := printSummary(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-bench:", err)
			return 1
		}
		return writePerf()
	}

	figs := []string{*fig}
	if *fig == "all" {
		figs = []string{"1", "2", "4a", "4b", "5", "6", "7", "8", "9"}
	}
	var events []eventlog.Event
	for _, f := range figs {
		if err := printFigure(f, *seed, *trials, *report, &events); err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-bench:", err)
			return 1
		}
	}
	if err := cliutil.WriteEventLog(*evLog, events); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-bench:", err)
		return 1
	}
	if err := cliutil.WriteTrace(*trace, events); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-bench:", err)
		return 1
	}
	return writePerf()
}

// collectEvents appends each run's event stream to *sink; distinct app IDs
// keep the runs on separate trace tracks.
func collectEvents(sink *[]eventlog.Event, res []*experiments.Result) {
	for _, r := range res {
		*sink = append(*sink, r.Events.Events()...)
	}
}

func printFigure(fig string, seed uint64, trials int, report string, events *[]eventlog.Event) error {
	start := time.Now()
	switch fig {
	case "1":
		fmt.Println("== Figure 1: cost of one vCPU, m4.large vs 1536 MB Lambda ==")
		fmt.Printf("%10s %14s %14s\n", "duration", "vm vCPU $", "lambda $")
		for _, p := range experiments.Figure1(5*time.Second, 3*time.Minute) {
			fmt.Printf("%10s %14.6f %14.6f\n", p.Duration, p.VMvCPUUSD, p.LambdaUSD)
		}

	case "2":
		f := experiments.Figure2()
		fmt.Println("== Figure 2: diurnal demand forecast and provisioning policies ==")
		s := f.Series
		fmt.Printf("%6s %8s %8s %8s\n", "hour", "m(t)", "σ(t)", "w(t)")
		for i := 0; i < s.Len(); i += 12 { // hourly samples
			fmt.Printf("%6.1f %8.1f %8.1f %8.1f\n",
				float64(i)*s.Step.Hours(), s.Mean[i], s.Sigma[i], s.Actual[i])
		}
		for _, p := range f.Policies {
			fmt.Println(p)
		}

	case "4a", "4b":
		lambda := fig == "4a"
		label := "all-Lambda executors (4a)"
		if !lambda {
			label = "all-VM executors (4b)"
		}
		pts, err := experiments.Figure4(lambda, seed, experiments.Figure4Sizes, 128, 3, nil)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatProfile("Figure 4: PageRank profiling, "+label, pts))

	case "5":
		res, err := experiments.Figure5(seed)
		if err != nil {
			return err
		}
		collectEvents(events, res)
		fmt.Print(experiments.FormatResultsByWorkload("Figure 5", res, "Spark 32 VM"))
		if imp, err := experiments.Speedup(res, "Spark 8/32 autoscale", "SS 8 VM / 24 La"); err == nil {
			fmt.Printf("hybrid vs VM autoscaling: %.1f%% less execution time (paper: 55.2%%)\n", imp*100)
		}
		if err := printReports(res, report); err != nil {
			return err
		}

	case "6":
		res, err := experiments.Figure6(seed)
		if err != nil {
			return err
		}
		collectEvents(events, res)
		fmt.Print(experiments.FormatResults("Figure 6: PageRank 850k pages", res, "Spark 16 VM"))
		if imp, err := experiments.Speedup(res, "Spark 3/16 autoscale", "SS 3 VM / 13 La"); err == nil {
			fmt.Printf("hybrid vs VM autoscaling: %.1f%% less execution time (paper: ~32%%)\n", imp*100)
		}
		if imp, err := experiments.Speedup(res, "Spark 3/16 autoscale", "SS 3 VM / 13 La Segue"); err == nil {
			fmt.Printf("segue  vs VM autoscaling: %.1f%% less execution time (paper: ~24%%)\n", imp*100)
		}
		if err := printReports(res, report); err != nil {
			return err
		}

	case "7":
		res, err := experiments.Figure7(seed)
		if err != nil {
			return err
		}
		collectEvents(events, res)
		fmt.Println("== Figure 7: PageRank execution timelines ==")
		for _, r := range res {
			fmt.Printf("--- %s (execution time %v)\n", r.Scenario, r.ExecTime.Round(100*time.Millisecond))
			fmt.Print(r.View.RenderTimeline(100))
		}
		if err := printReports(res, report); err != nil {
			return err
		}

	case "8":
		stats, err := experiments.Figure8(seed, trials)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTrials(
			fmt.Sprintf("Figure 8: K-means 3M points, R=16, r=4 (%d trials)", trials), stats))

	case "9":
		res, err := experiments.Figure9(seed)
		if err != nil {
			return err
		}
		collectEvents(events, res)
		fmt.Print(experiments.FormatResults("Figure 9: SparkPi 1e10 darts", res, "Spark 64 VM"))
		if err := printReports(res, report); err != nil {
			return err
		}

	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
	fmt.Printf("(generated in %v)\n\n", time.Since(start).Round(10*time.Millisecond))
	return nil
}

// printReports dumps each run's telemetry report in the requested format
// ("" = off), labelled by scenario.
func printReports(res []*experiments.Result, format string) error {
	if format == "" {
		return nil
	}
	for _, r := range res {
		fmt.Printf("--- telemetry report: %s / %s ---\n", r.Workload, r.Scenario)
		switch format {
		case "json":
			buf, err := r.Telem.Report().JSON()
			if err != nil {
				return err
			}
			os.Stdout.Write(buf)
			fmt.Println()
		case "prom":
			if err := r.Telem.WritePrometheus(os.Stdout); err != nil {
				return err
			}
		}
	}
	return nil
}

// printSummary re-measures the paper's abstract-level claims.
func printSummary(seed uint64) error {
	fmt.Println("== SplitServe headline claims, re-measured ==")
	res5, err := experiments.Figure5(seed)
	if err != nil {
		return err
	}
	imp5, err := experiments.Speedup(res5, "Spark 8/32 autoscale", "SS 8 VM / 24 La")
	if err != nil {
		return err
	}
	fmt.Printf("small/modest shuffling (TPC-DS): SplitServe hybrid takes %.1f%% less time than VM autoscaling (paper: up to 55%%)\n", imp5*100)

	res6, err := experiments.Figure6(seed)
	if err != nil {
		return err
	}
	imp6, err := experiments.Speedup(res6, "Spark 3/16 autoscale", "SS 3 VM / 13 La")
	if err != nil {
		return err
	}
	fmt.Printf("large shuffling (PageRank): SplitServe hybrid takes %.1f%% less time than VM autoscaling (paper: up to 31%%)\n", imp6*100)
	return nil
}
