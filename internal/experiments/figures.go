package experiments

import (
	"fmt"
	"math"
	"time"

	"splitserve/internal/autoscale"
	"splitserve/internal/billing"
	"splitserve/internal/cloud"
	"splitserve/internal/s3q"
	"splitserve/internal/workloads"
	"splitserve/internal/workloads/kmeans"
	"splitserve/internal/workloads/pagerank"
	"splitserve/internal/workloads/sparkpi"
	"splitserve/internal/workloads/tpcds"
)

// Calibration constants. All time/cost modelling lives in the substrate
// packages; these scale per-row CPU costs so the "Spark R VM" baselines
// land in the paper's measured ballpark (see EXPERIMENTS.md for
// paper-vs-measured on every figure).
const (
	tpcdsWorkScale    = 12
	tpcdsPartitions   = 200 // Spark SQL's default shuffle partitions
	tpcdsSample       = 32
	pagerankWorkScale = 12
	pagerankSample    = 4
	kmeansWorkScale   = 4
	kmeansSample      = 10
	// kmeansExecMemMB mirrors spark.executor.memory=1g: with the 3M-point
	// cached dataset this is ample across 16 executors and thrashing
	// across 4 — the paper's 10x under-provisioning collapse.
	kmeansExecMemMB = 1024
	// quboleSeqWindow: Qubole's shuffle writes objects near-sequentially
	// and fetches a handful at a time.
	quboleSeqWindow = 4
	// Driver-side overheads (real Spark: stage launch is DAG bookkeeping,
	// task-set construction and binary broadcast; the driver dispatches
	// tasks serially).
	defaultStageOverhead = 1400 * time.Millisecond
	defaultDispatchCost  = 4 * time.Millisecond
)

// quboleS3 returns the S3 model used for the Qubole baseline: effective
// sustained request rates under throttling-induced client backoff
// (SlowDown retries), calibrated against the paper's measured slowdowns.
func quboleS3() s3q.Options {
	o := s3q.DefaultOptions()
	o.PutPerSec = 60
	o.GetPerSec = 120
	o.RequestPipeline = quboleSeqWindow
	return o
}

// Figure1 regenerates the cost-vs-time-in-use comparison of one vCPU on an
// m4.large against a 1536 MB Lambda.
func Figure1(step, max time.Duration) []billing.CostPoint {
	return billing.Figure1Curve(cloud.M4Large.PricePerHour, step, max)
}

// Figure2 regenerates the diurnal forecast with provisioning policies.
type Figure2Result struct {
	Series   *autoscale.Series
	Policies []autoscale.PolicyCost
}

// Figure2 builds the workday series and prices the m(t)+k·σ(t) policies.
func Figure2() *Figure2Result {
	s := autoscale.Diurnal(autoscale.DefaultSeriesConfig())
	vCPUPrice := cloud.M4Large.PricePerHour / float64(cloud.M4Large.VCPUs)
	var policies []autoscale.PolicyCost
	for _, k := range []float64{0, 1, 2} {
		policies = append(policies, s.EvaluatePolicy(k, vCPUPrice))
	}
	return &Figure2Result{Series: s, Policies: policies}
}

// ProfilePoint is one Figure 4 sample.
type ProfilePoint struct {
	Pages       int
	Parallelism int
	ExecTime    time.Duration
	CostUSD     float64
}

// Figure4 profiles PageRank execution time and cost versus degree of
// parallelism, all-Lambda (fig 4a) or all-VM (fig 4b), for the paper's
// three dataset sizes. Parallelism sweeps 1..128 in powers of two.
func Figure4(lambda bool, seed uint64) ([]ProfilePoint, error) {
	var out []ProfilePoint
	for _, pages := range []int{25_000, 50_000, 100_000} {
		for par := 1; par <= 128; par *= 2 {
			cfg := pagerank.DefaultConfig()
			cfg.Pages = pages
			cfg.Partitions = par
			cfg.Iterations = 3
			cfg.WorkScale = pagerankWorkScale
			cfg.Seed = seed
			w := pagerank.New(cfg)
			kind := SSFullVM
			if lambda {
				kind = SSLambda
			}
			workerType, _ := cloud.SmallestFor(par)
			res, err := Run(Scenario{
				Kind: kind, R: par, SmallR: par,
				WorkerVMType: workerType,
				MasterVMType: cloud.M4XLarge,
				Seed:         seed,
			}, w)
			if err != nil {
				return nil, fmt.Errorf("figure4(pages=%d par=%d): %w", pages, par, err)
			}
			out = append(out, ProfilePoint{
				Pages: pages, Parallelism: par,
				ExecTime: res.ExecTime, CostUSD: res.CostUSD,
			})
		}
	}
	return out, nil
}

// tpcdsScenarios are Figure 5's seven configurations (R=32, r=8,
// m4.10xlarge workers and master, as in the paper).
func tpcdsScenarios(seed uint64) []Scenario {
	base := Scenario{
		R: 32, SmallR: 8,
		WorkerVMType: cloud.M410XLarge,
		MasterVMType: cloud.M410XLarge,
		Seed:         seed,
		S3:           quboleS3(),
	}
	kinds := []Kind{SparkSmallVM, SparkFullVM, SparkAutoscale, QuboleLambda, SSFullVM, SSLambda, SSHybrid}
	var out []Scenario
	for _, k := range kinds {
		sc := base
		sc.Kind = k
		out = append(out, sc)
	}
	return out
}

// Figure5 runs Q5/Q16/Q94/Q95 at SF=8 under every scenario.
func Figure5(seed uint64) ([]*Result, error) {
	var out []*Result
	for _, id := range []string{"q5", "q16", "q94", "q95"} {
		for _, sc := range tpcdsScenarios(seed) {
			q := tpcds.NewQuery(id, 8, tpcdsPartitions).WithWorkScale(tpcdsWorkScale).WithSample(tpcdsSample)
			res, err := Run(sc, q)
			if err != nil {
				return nil, fmt.Errorf("figure5 %s under %s: %w", id, sc.Name(), err)
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// pagerankConfig is the Figure 6/7 workload (850k pages, R=16, r=3,
// m4.4xlarge worker, master+HDFS colocated on an m4.xlarge).
func pagerankConfig(seed uint64) pagerank.Config {
	cfg := pagerank.DefaultConfig()
	cfg.WorkScale = pagerankWorkScale
	cfg.SampleFactor = pagerankSample
	cfg.Seed = seed
	return cfg
}

func pagerankScenarios(seed uint64, kinds []Kind) []Scenario {
	base := Scenario{
		R: 16, SmallR: 3,
		WorkerVMType: cloud.M44XLarge,
		MasterVMType: cloud.M4XLarge,
		Seed:         seed,
		S3:           quboleS3(),
		// Figure 7: a core on an existing VM frees at 45 s.
		SegueAt:       45 * time.Second,
		LambdaTimeout: 40 * time.Second,
	}
	var out []Scenario
	for _, k := range kinds {
		sc := base
		sc.Kind = k
		out = append(out, sc)
	}
	return out
}

// Figure6 runs PageRank-850k under all eight scenarios.
func Figure6(seed uint64) ([]*Result, error) {
	kinds := []Kind{SparkSmallVM, SparkFullVM, SparkAutoscale, QuboleLambda, SSFullVM, SSLambda, SSHybrid, SSHybridSegue}
	var out []*Result
	for _, sc := range pagerankScenarios(seed, kinds) {
		res, err := Run(sc, pagerank.New(pagerankConfig(seed)))
		if err != nil {
			return nil, fmt.Errorf("figure6 %s: %w", sc.Name(), err)
		}
		out = append(out, res)
	}
	return out, nil
}

// Figure7 reproduces the execution-timeline comparison: (i) Spark 16 VM,
// (ii) SS 3 VM / 13 La, (iii) the same with segue at 45 s. It returns the
// scenario results whose Logs carry the timelines.
func Figure7(seed uint64) ([]*Result, error) {
	kinds := []Kind{SparkFullVM, SSHybrid, SSHybridSegue}
	var out []*Result
	for _, sc := range pagerankScenarios(seed, kinds) {
		cfg := pagerankConfig(seed)
		cfg.Iterations = 2 // the paper's 6-stage timeline
		res, err := Run(sc, pagerank.New(cfg))
		if err != nil {
			return nil, fmt.Errorf("figure7 %s: %w", sc.Name(), err)
		}
		out = append(out, res)
	}
	return out, nil
}

// TrialStats aggregates repeated trials of one scenario (Figure 8's error
// bars: 15 independent trials).
type TrialStats struct {
	Scenario   string
	MeanTime   time.Duration
	StdDevTime time.Duration
	MeanCost   float64
	StdDevCost float64
	Trials     int
}

// Figure8 runs K-means (3M points, R=16, r=4) under each scenario with
// `trials` independent seeds and reports mean and standard deviation.
func Figure8(seed uint64, trials int) ([]TrialStats, error) {
	if trials <= 0 {
		trials = 15
	}
	base := Scenario{
		R: 16, SmallR: 4,
		WorkerVMType: cloud.M44XLarge,
		MasterVMType: cloud.M4XLarge,
		ExecMemoryMB: kmeansExecMemMB,
		S3:           quboleS3(),
		// The paper observes K-means autoscale VMs "available to use
		// within ~1 minute"; the delay is sampled around that mean, which
		// is what spreads the trial error bars.
		VMBootMean: 60 * time.Second,
	}
	kinds := []Kind{SparkSmallVM, SparkFullVM, SparkAutoscale, QuboleLambda, SSFullVM, SSLambda, SSHybrid}
	var out []TrialStats
	for _, k := range kinds {
		var times, costs []float64
		for trial := 0; trial < trials; trial++ {
			sc := base
			sc.Kind = k
			sc.Seed = seed + uint64(trial)*101
			cfg := kmeans.DefaultConfig()
			cfg.WorkScale = kmeansWorkScale
			cfg.SampleFactor = kmeansSample
			cfg.ConvergenceDist = -1 // HiBench-style fixed 5 iterations
			cfg.Seed = sc.Seed
			res, err := Run(sc, kmeans.New(cfg))
			if err != nil {
				return nil, fmt.Errorf("figure8 %s trial %d: %w", sc.Name(), trial, err)
			}
			times = append(times, res.ExecTime.Seconds())
			costs = append(costs, res.CostUSD)
		}
		mt, st := meanStd(times)
		mc, sc2 := meanStd(costs)
		out = append(out, TrialStats{
			Scenario:   base.withKind(k).Name(),
			MeanTime:   time.Duration(mt * float64(time.Second)),
			StdDevTime: time.Duration(st * float64(time.Second)),
			MeanCost:   mc,
			StdDevCost: sc2,
			Trials:     trials,
		})
	}
	return out, nil
}

func (s Scenario) withKind(k Kind) Scenario {
	s.Kind = k
	return s
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	v := 0.0
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(v / float64(len(xs)-1))
}

// Figure9 runs SparkPi (1e10 darts, R=64, r=4) under its six scenarios.
func Figure9(seed uint64) ([]*Result, error) {
	base := Scenario{
		R: 64, SmallR: 4,
		WorkerVMType: cloud.M416XLarge,
		MasterVMType: cloud.M4XLarge,
		Seed:         seed,
		S3:           quboleS3(),
	}
	// The paper benchmarks a warm Qubole deployment (its cold Spark-
	// runtime bootstrap would otherwise dominate this seconds-long job,
	// which the paper's near-parity measurements rule out).
	base.QuboleLaunchDelay = 1500 * time.Millisecond
	kinds := []Kind{SparkSmallVM, SparkFullVM, QuboleLambda, SSFullVM, SSLambda, SSHybrid}
	var out []*Result
	for _, k := range kinds {
		sc := base
		sc.Kind = k
		cfg := sparkpi.DefaultConfig()
		cfg.Seed = seed
		res, err := Run(sc, sparkpi.New(cfg))
		if err != nil {
			return nil, fmt.Errorf("figure9 %s: %w", sc.Name(), err)
		}
		out = append(out, res)
	}
	return out, nil
}

// NewTPCDSQuery exposes the calibrated Figure 5 query construction for the
// public API and examples.
func NewTPCDSQuery(id string) workloads.Workload {
	return tpcds.NewQuery(id, 8, tpcdsPartitions).WithWorkScale(tpcdsWorkScale).WithSample(tpcdsSample)
}

// NewPageRank exposes the calibrated Figure 6 PageRank workload.
func NewPageRank(seed uint64) workloads.Workload {
	return pagerank.New(pagerankConfig(seed))
}

// NewKMeans exposes the calibrated Figure 8 K-means workload.
func NewKMeans(seed uint64) workloads.Workload {
	cfg := kmeans.DefaultConfig()
	cfg.WorkScale = kmeansWorkScale
	cfg.SampleFactor = kmeansSample
	cfg.ConvergenceDist = -1
	cfg.Seed = seed
	return kmeans.New(cfg)
}

// NewSparkPi exposes the calibrated Figure 9 SparkPi workload.
func NewSparkPi(seed uint64) workloads.Workload {
	cfg := sparkpi.DefaultConfig()
	cfg.Seed = seed
	return sparkpi.New(cfg)
}
