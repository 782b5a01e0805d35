package splitserve

// Benchmarks regenerating every figure of the paper's evaluation, plus
// ablations over SplitServe's design knobs. Wall-clock nanoseconds measure
// the simulator; the custom metrics carry the reproduced results:
//
//	sim-seconds/x — the scenario's simulated execution time
//	usd/x         — the scenario's marginal dollar cost
//
// Run with: go test -bench=. -benchmem
//
// With BENCH_JSON=FILE set, the custom metrics are additionally written
// to FILE as JSON after the run (see benchjson_test.go and `make bench`).

import (
	"fmt"
	"testing"
	"time"

	"splitserve/internal/autoscale"
	"splitserve/internal/cloud"
	"splitserve/internal/eventlog"
	"splitserve/internal/experiments"
	"splitserve/internal/workloads/pagerank"
)

// report attaches a scenario result to a benchmark.
func report(b *testing.B, label string, secs, usd float64) {
	recordMetric(b, secs, "sim-seconds/"+label)
	recordMetric(b, usd, "usd/"+label)
}

// BenchmarkFig1CostCurve regenerates the Lambda-vs-VM cost comparison and
// reports the crossover instant.
func BenchmarkFig1CostCurve(b *testing.B) {
	var cross float64
	for i := 0; i < b.N; i++ {
		pts := experiments.Figure1(100*time.Millisecond, 2*time.Minute)
		cross = 0
		for _, p := range pts {
			if p.LambdaUSD > p.VMvCPUUSD {
				cross = p.Duration.Seconds()
				break
			}
		}
	}
	recordMetric(b, cross, "crossover-seconds")
}

// BenchmarkFig2Forecast regenerates the diurnal provisioning analysis.
func BenchmarkFig2Forecast(b *testing.B) {
	var f *experiments.Figure2Result
	for i := 0; i < b.N; i++ {
		f = experiments.Figure2()
	}
	recordMetric(b, float64(len(f.Series.Shortfalls(2))), "shortfall-samples-k2")
	recordMetric(b, f.Policies[0].TotalUSD, "usd-policy-k0")
	recordMetric(b, f.Policies[2].TotalUSD, "usd-policy-k2")
}

// fig4Sweep is a reduced Figure 4 sweep (one dataset size) per iteration.
func fig4Sweep(b *testing.B, lambda bool) {
	var minTime, minPar float64
	for i := 0; i < b.N; i++ {
		minTime, minPar = 0, 0
		for par := 1; par <= 64; par *= 2 {
			cfg := pagerank.DefaultConfig()
			cfg.Pages = 100_000
			cfg.Partitions = par
			cfg.Seed = 1
			kind := experiments.SSFullVM
			if lambda {
				kind = experiments.SSLambda
			}
			workerType, _ := cloud.SmallestFor(par)
			res, err := experiments.Run(experiments.Scenario{
				Kind: kind, R: par, SmallR: par,
				WorkerVMType: workerType, Seed: 1,
			}, pagerank.New(cfg))
			if err != nil {
				b.Fatal(err)
			}
			if minTime == 0 || res.ExecTime.Seconds() < minTime {
				minTime = res.ExecTime.Seconds()
				minPar = float64(par)
			}
		}
	}
	recordMetric(b, minPar, "optimal-parallelism")
	recordMetric(b, minTime, "optimal-sim-seconds")
}

// BenchmarkFig4ProfileLambda regenerates Figure 4a (all-Lambda U-curve).
func BenchmarkFig4ProfileLambda(b *testing.B) { fig4Sweep(b, true) }

// BenchmarkFig4ProfileVM regenerates Figure 4b (all-VM U-curve).
func BenchmarkFig4ProfileVM(b *testing.B) { fig4Sweep(b, false) }

// BenchmarkFig5TPCDS regenerates Figure 5 and reports the paper's headline
// comparisons averaged over Q5/Q16/Q94/Q95.
func BenchmarkFig5TPCDS(b *testing.B) {
	var res []*experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure5(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	avg := experiments.AverageByScenario(res)
	report(b, "spark32", avg["Spark 32 VM"].Seconds(), 0)
	report(b, "qubole", avg["Qubole 32 La"].Seconds(), 0)
	report(b, "hybrid", avg["SS 8 VM / 24 La"].Seconds(), 0)
	if imp, err := experiments.Speedup(res, "Spark 8/32 autoscale", "SS 8 VM / 24 La"); err == nil {
		recordMetric(b, imp*100, "pct-better-than-autoscale")
	}
}

// BenchmarkFig6PageRank regenerates Figure 6.
func BenchmarkFig6PageRank(b *testing.B) {
	var res []*experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure6(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		switch r.Scenario {
		case "Spark 16 VM":
			report(b, "spark16", r.ExecTime.Seconds(), r.CostUSD)
		case "SS 3 VM / 13 La":
			report(b, "hybrid", r.ExecTime.Seconds(), r.CostUSD)
		case "SS 3 VM / 13 La Segue":
			report(b, "segue", r.ExecTime.Seconds(), r.CostUSD)
		}
	}
}

// BenchmarkFig7Timeline regenerates the three execution timelines.
func BenchmarkFig7Timeline(b *testing.B) {
	var res []*experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure7(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	// The segue run must actually have drained lambdas.
	segues := 0
	for _, e := range res[2].Events.Events() {
		if e.Type == eventlog.Segue {
			segues++
		}
	}
	recordMetric(b, float64(segues), "segue-events")
	report(b, "segue-run", res[2].ExecTime.Seconds(), res[2].CostUSD)
}

// BenchmarkFig8KMeans regenerates Figure 8 with 3 trials per scenario
// (15 in the paper; `splitserve-bench -fig 8` uses the full count).
func BenchmarkFig8KMeans(b *testing.B) {
	var stats []experiments.TrialStats
	for i := 0; i < b.N; i++ {
		var err error
		stats, err = experiments.Figure8(1, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range stats {
		switch s.Scenario {
		case "Spark 4 VM":
			report(b, "spark4", s.MeanTime.Seconds(), s.MeanCost)
		case "Spark 16 VM":
			report(b, "spark16", s.MeanTime.Seconds(), s.MeanCost)
		case "SS 16 La":
			report(b, "ss16la", s.MeanTime.Seconds(), s.MeanCost)
		}
	}
}

// BenchmarkFig9SparkPi regenerates Figure 9.
func BenchmarkFig9SparkPi(b *testing.B) {
	var res []*experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure9(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		switch r.Scenario {
		case "Spark 64 VM":
			report(b, "spark64", r.ExecTime.Seconds(), r.CostUSD)
		case "Spark 4 VM":
			report(b, "spark4", r.ExecTime.Seconds(), r.CostUSD)
		case "Qubole 64 La":
			report(b, "qubole", r.ExecTime.Seconds(), r.CostUSD)
		}
	}
}

// ablationWorkload is the mid-size PageRank used by the design-knob
// ablations.
func ablationWorkload() *pagerank.Workload {
	cfg := pagerank.DefaultConfig()
	cfg.Pages = 200_000
	cfg.Partitions = 16
	cfg.Iterations = 3
	return pagerank.New(cfg)
}

// BenchmarkAblationShuffleBackend compares the three shuffle substrates on
// the same workload: executor-local disk (vanilla), HDFS (SplitServe's
// state-transfer facility), and S3 (Qubole) — the design choice Section 4.3
// motivates.
func BenchmarkAblationShuffleBackend(b *testing.B) {
	kinds := []struct {
		kind  experiments.Kind
		label string
	}{
		{experiments.SparkFullVM, "local"},
		{experiments.SSFullVM, "hdfs"},
		{experiments.QuboleLambda, "s3"},
	}
	var out map[string]*experiments.Result
	for i := 0; i < b.N; i++ {
		out = make(map[string]*experiments.Result)
		for _, k := range kinds {
			res, err := experiments.Run(experiments.Scenario{
				Kind: k.kind, R: 16, SmallR: 16,
				WorkerVMType: cloud.M44XLarge, Seed: 1,
			}, ablationWorkload())
			if err != nil {
				b.Fatal(err)
			}
			out[k.label] = res
		}
	}
	for label, res := range out {
		report(b, label, res.ExecTime.Seconds(), res.CostUSD)
	}
}

// BenchmarkAblationSegueThreshold sweeps spark.lambda.executor.timeout —
// the paper's configurable knob — showing the cost/latency trade-off of
// segueing earlier or later.
func BenchmarkAblationSegueThreshold(b *testing.B) {
	thresholds := []time.Duration{10 * time.Second, 40 * time.Second, 90 * time.Second}
	long := pagerank.DefaultConfig()
	long.Pages = 850_000
	long.Partitions = 16
	long.Iterations = 3
	long.WorkScale = 12
	long.SampleFactor = 4
	var out []*experiments.Result
	for i := 0; i < b.N; i++ {
		out = out[:0]
		for _, th := range thresholds {
			res, err := experiments.Run(experiments.Scenario{
				Kind: experiments.SSHybridSegue, R: 16, SmallR: 3,
				WorkerVMType:  cloud.M44XLarge,
				SegueAt:       20 * time.Second,
				LambdaTimeout: th,
				Seed:          1,
			}, pagerank.New(long))
			if err != nil {
				b.Fatal(err)
			}
			out = append(out, res)
		}
	}
	for i, th := range thresholds {
		report(b, "timeout-"+th.String(), out[i].ExecTime.Seconds(), out[i].CostUSD)
	}
}

// BenchmarkAblationLambdaMemory sweeps the Lambda memory size: memory buys
// CPU share and network bandwidth (1 vCPU per 1536 MB) but raises the
// GB-second price — the sizing decision Section 3 discusses.
func BenchmarkAblationLambdaMemory(b *testing.B) {
	sizes := []int{1024, 1536, 3008}
	var out []*experiments.Result
	for i := 0; i < b.N; i++ {
		out = out[:0]
		for _, mem := range sizes {
			res, err := experiments.Run(experiments.Scenario{
				Kind: experiments.SSLambda, R: 16,
				LambdaMemoryMB: mem,
				Seed:           1,
			}, ablationWorkload())
			if err != nil {
				b.Fatal(err)
			}
			out = append(out, res)
		}
	}
	for i, mem := range sizes {
		report(b, fmt.Sprintf("mem-%dMB", mem), out[i].ExecTime.Seconds(), out[i].CostUSD)
	}
}

// BenchmarkExtensionBurScale compares SplitServe's Lambdas against
// BurScale-style burstable standbys (paper Section 2's complementary
// remedy) with healthy and depleted CPU-credit balances.
func BenchmarkExtensionBurScale(b *testing.B) {
	var rows []experiments.BurScaleResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExtensionBurScale(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	labels := []string{"lambda-bridge", "t3-full", "t3-depleted"}
	for i, r := range rows {
		report(b, labels[i], r.ExecTime.Seconds(), r.CostUSD)
	}
}

// BenchmarkExtensionDaySim prices a full day of the inter-job layer
// (Section 4.1) under the provisioning strategies.
func BenchmarkExtensionDaySim(b *testing.B) {
	var rows []autoscale.DayResult
	for i := 0; i < b.N; i++ {
		rows = autoscale.CompareDayStrategies(1)
	}
	for _, r := range rows {
		recordMetric(b, r.TotalUSD, "usd-day/"+r.Label())
		recordMetric(b, float64(r.SLOViolations), "violations/"+r.Label())
	}
}
