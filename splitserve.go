// Package splitserve is the public API of the SplitServe reproduction — a
// discrete-event reimplementation of "SplitServe: Efficiently Splitting
// Apache Spark Jobs Across FaaS and IaaS" (Middleware 2020).
//
// The package lets a user run the paper's workloads (TPC-DS queries,
// PageRank, K-means, SparkPi — or custom dataflows built on the engine)
// under the paper's provisioning scenarios (vanilla Spark on r or R VM
// cores, VM autoscaling, Qubole-style all-Lambda with S3 shuffle, and
// SplitServe's hybrid VM+Lambda execution with optional segueing), and
// reports execution time, marginal cost, and the execution timeline.
//
// Quick start:
//
//	w := splitserve.PageRank(splitserve.PageRankOptions{Pages: 100_000})
//	res, err := splitserve.Run(splitserve.ScenarioHybrid, w,
//	    splitserve.WithCores(16, 3))
//	fmt.Println(res.ExecTime, res.CostUSD)
//
// Every run is a deterministic simulation: same seed, same result.
package splitserve

import (
	"fmt"
	"io"
	"time"

	"splitserve/internal/cloud"
	"splitserve/internal/eventlog"
	"splitserve/internal/experiments"
	"splitserve/internal/perfstat"
	"splitserve/internal/workloads"
	"splitserve/internal/workloads/kmeans"
	"splitserve/internal/workloads/pagerank"
	"splitserve/internal/workloads/sparkpi"
	"splitserve/internal/workloads/tpcds"
)

// Workload is a runnable benchmark program. The built-in constructors
// below cover the paper's four workloads; custom dataflows can implement
// the same interface against the engine packages.
type Workload = workloads.Workload

// ScenarioKind selects one of the paper's provisioning scenarios.
type ScenarioKind int

// Scenario kinds (Section 5.1 of the paper).
const (
	// ScenarioSparkSmall is "Spark r VM": under-provisioned vanilla Spark.
	ScenarioSparkSmall ScenarioKind = iota + 1
	// ScenarioSparkFull is "Spark R VM": adequately provisioned Spark.
	ScenarioSparkFull
	// ScenarioSparkAutoscale is "Spark r/R autoscale".
	ScenarioSparkAutoscale
	// ScenarioQubole is "Qubole R La": all-Lambda with S3 shuffle.
	ScenarioQubole
	// ScenarioSSFullVM is "SS R VM": SplitServe, all VM cores.
	ScenarioSSFullVM
	// ScenarioSSLambda is "SS R La": SplitServe all-Lambda, HDFS shuffle.
	ScenarioSSLambda
	// ScenarioHybrid is "SS r VM / Δ La": the hybrid launching facility.
	ScenarioHybrid
	// ScenarioHybridSegue adds the segueing facility.
	ScenarioHybridSegue
)

var kindMap = map[ScenarioKind]experiments.Kind{
	ScenarioSparkSmall:     experiments.SparkSmallVM,
	ScenarioSparkFull:      experiments.SparkFullVM,
	ScenarioSparkAutoscale: experiments.SparkAutoscale,
	ScenarioQubole:         experiments.QuboleLambda,
	ScenarioSSFullVM:       experiments.SSFullVM,
	ScenarioSSLambda:       experiments.SSLambda,
	ScenarioHybrid:         experiments.SSHybrid,
	ScenarioHybridSegue:    experiments.SSHybridSegue,
}

// Option customises a Run.
type Option func(*experiments.Scenario)

// WithCores sets the job's required cores R and the free VM cores r.
func WithCores(r int, small int) Option {
	return func(sc *experiments.Scenario) {
		sc.R = r
		sc.SmallR = small
	}
}

// WithSeed sets the simulation seed.
func WithSeed(seed uint64) Option {
	return func(sc *experiments.Scenario) { sc.Seed = seed }
}

// WithSegueAt pins when segue replacement capacity becomes available.
func WithSegueAt(d time.Duration) Option {
	return func(sc *experiments.Scenario) { sc.SegueAt = d }
}

// WithLambdaTimeout sets spark.lambda.executor.timeout.
func WithLambdaTimeout(d time.Duration) Option {
	return func(sc *experiments.Scenario) { sc.LambdaTimeout = d }
}

// WithSelfProfile attaches a perfstat collector: host-side (wall-clock)
// self-profiling of the simulator — events/sec, allocs per event, per-step
// wall percentiles. Purely observational; the simulated result, report and
// event log are byte-identical with it on or off. Obtain one with
// perfstat.New and read it with Snapshot after the run.
func WithSelfProfile(p *perfstat.Collector) Option {
	return func(sc *experiments.Scenario) { sc.Profiler = p }
}

// WithWorkerType selects the instance type hosting VM executors, e.g.
// splitserve.M44XLarge.
func WithWorkerType(t VMType) Option {
	return func(sc *experiments.Scenario) { sc.WorkerVMType = cloud.VMType(t) }
}

// WithMasterType selects the master (and colocated HDFS) instance type.
func WithMasterType(t VMType) Option {
	return func(sc *experiments.Scenario) { sc.MasterVMType = cloud.VMType(t) }
}

// WithExecutorMemoryMB fixes per-executor memory on VMs
// (spark.executor.memory).
func WithExecutorMemoryMB(mb int) Option {
	return func(sc *experiments.Scenario) { sc.ExecMemoryMB = mb }
}

// VMType names an EC2 instance type.
type VMType cloud.VMType

// The m4 family used throughout the paper.
var (
	M4Large    = VMType(cloud.M4Large)
	M4XLarge   = VMType(cloud.M4XLarge)
	M42XLarge  = VMType(cloud.M42XLarge)
	M44XLarge  = VMType(cloud.M44XLarge)
	M410XLarge = VMType(cloud.M410XLarge)
	M416XLarge = VMType(cloud.M416XLarge)
)

// Result is the outcome of one scenario run.
type Result struct {
	// Scenario and Workload identify the run.
	Scenario string
	Workload string
	// ExecTime is the job's simulated execution time (submission to
	// completion, including driver startup).
	ExecTime time.Duration
	// CostUSD is the job's marginal cost (VM core share, procured VMs,
	// Lambda GB-seconds, S3 requests).
	CostUSD float64
	// CostByKind breaks the cost down ("vm", "lambda", "s3").
	CostByKind map[string]float64
	// Answer is the workload's computed (real) result digest.
	Answer string
	// VMExecutors and LambdaExecutors count the executor mix used.
	VMExecutors     int
	LambdaExecutors int
	// VMTasks/LambdaTasks and VMBusy/LambdaBusy split the executed work
	// by substrate (the paper's work-distribution analysis).
	VMTasks     int
	LambdaTasks int
	VMBusy      time.Duration
	LambdaBusy  time.Duration

	inner *experiments.Result
}

// Timeline renders the run's per-executor execution timeline (the paper's
// Figure 7 view) as ASCII, width columns wide.
func (r *Result) Timeline(width int) string {
	return r.inner.View.RenderTimeline(width)
}

// ReportJSON returns the run's full telemetry report — counters, gauges,
// histograms, spans, and marks — as deterministic, indented JSON. Two runs
// with identical inputs produce byte-identical reports.
func (r *Result) ReportJSON() ([]byte, error) {
	return r.inner.Telem.Report().JSON()
}

// ReportPrometheus writes the run's metrics (no spans) in the Prometheus
// text exposition format.
func (r *Result) ReportPrometheus(w io.Writer) error {
	return r.inner.Telem.WritePrometheus(w)
}

// EventLogJSONL returns the run's structured event stream as JSONL (one
// event per line, byte-identical across same-seed runs). Replay it with
// cmd/splitserve-history.
func (r *Result) EventLogJSONL() ([]byte, error) {
	return r.inner.Events.JSONL()
}

// ChromeTrace renders the run's event stream as Chrome trace-event JSON,
// loadable in chrome://tracing or https://ui.perfetto.dev.
func (r *Result) ChromeTrace() ([]byte, error) {
	return eventlog.ChromeTrace(r.inner.Events.Events())
}

// Events returns the run's raw event stream in emission order, for
// programmatic analysis (see internal/eventlog.Analyze).
func (r *Result) Events() []eventlog.Event {
	return r.inner.Events.Events()
}

// String summarises the result.
func (r *Result) String() string {
	return fmt.Sprintf("%s under %s: %v, $%.4f (%d VM / %d Lambda executors)",
		r.Workload, r.Scenario, r.ExecTime.Round(time.Millisecond),
		r.CostUSD, r.VMExecutors, r.LambdaExecutors)
}

// Run executes workload w under the given scenario kind. Defaults: R is
// the workload's preferred parallelism, r = R/4, paper-calibrated machine
// types, seed 1.
func Run(kind ScenarioKind, w Workload, opts ...Option) (*Result, error) {
	ik, ok := kindMap[kind]
	if !ok {
		return nil, fmt.Errorf("splitserve: unknown scenario kind %d", kind)
	}
	sc := experiments.Scenario{
		Kind:   ik,
		R:      w.DefaultParallelism(),
		SmallR: w.DefaultParallelism() / 4,
		Seed:   1,
	}
	if sc.SmallR < 1 {
		sc.SmallR = 1
	}
	for _, o := range opts {
		o(&sc)
	}
	res, err := experiments.Run(sc, w)
	if err != nil {
		return nil, err
	}
	return &Result{
		Scenario:        res.Scenario,
		Workload:        res.Workload,
		ExecTime:        res.ExecTime,
		CostUSD:         res.CostUSD,
		CostByKind:      res.ByKind,
		Answer:          res.Answer,
		VMExecutors:     res.VMExecs,
		LambdaExecutors: res.Lambdas,
		VMTasks:         res.VMWork.Tasks,
		LambdaTasks:     res.LambdaWork.Tasks,
		VMBusy:          res.VMWork.Busy,
		LambdaBusy:      res.LambdaWork.Busy,
		inner:           res,
	}, nil
}

// PageRankOptions configure the PageRank workload.
type PageRankOptions struct {
	// Pages (default 850,000, the paper's Figure 6 size).
	Pages int
	// Iterations (default 3) and Partitions (default 16).
	Iterations int
	Partitions int
	// Seed (default 1).
	Seed uint64
}

// PageRank builds the HiBench WebSearch workload.
func PageRank(o PageRankOptions) Workload {
	cfg := pagerank.DefaultConfig()
	if o.Pages > 0 {
		cfg.Pages = o.Pages
	}
	if o.Iterations > 0 {
		cfg.Iterations = o.Iterations
	}
	if o.Partitions > 0 {
		cfg.Partitions = o.Partitions
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	return pagerank.New(cfg)
}

// KMeansOptions configure the K-means workload.
type KMeansOptions struct {
	// Points (default 3,000,000), Dims (20), K (10).
	Points int
	Dims   int
	K      int
	// Partitions (default 16), MaxIterations (5).
	Partitions    int
	MaxIterations int
	Seed          uint64
}

// KMeans builds the HiBench distributed K-means workload.
func KMeans(o KMeansOptions) Workload {
	cfg := kmeans.DefaultConfig()
	if o.Points > 0 {
		cfg.Points = o.Points
	}
	if o.Dims > 0 {
		cfg.Dims = o.Dims
	}
	if o.K > 0 {
		cfg.K = o.K
	}
	if o.Partitions > 0 {
		cfg.Partitions = o.Partitions
	}
	if o.MaxIterations > 0 {
		cfg.MaxIterations = o.MaxIterations
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	return kmeans.New(cfg)
}

// SparkPiOptions configure the SparkPi workload.
type SparkPiOptions struct {
	// Darts (default 1e10) and Partitions (default 64).
	Darts      int64
	Partitions int
	Seed       uint64
}

// SparkPi builds the Monte-Carlo π workload.
func SparkPi(o SparkPiOptions) Workload {
	cfg := sparkpi.DefaultConfig()
	if o.Darts > 0 {
		cfg.Darts = o.Darts
	}
	if o.Partitions > 0 {
		cfg.Partitions = o.Partitions
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	return sparkpi.New(cfg)
}

// TPCDSQuery builds one of the paper's four TPC-DS queries ("q5", "q16",
// "q94", "q95") at the paper's scale factor 8 with the calibrated
// configuration (the query's answers are really computed over synthetic
// TPC-DS-shaped tables).
func TPCDSQuery(id string) Workload {
	return experiments.NewTPCDSQuery(id)
}

// TPCDSQueryAt builds a TPC-DS query at an arbitrary scale factor and
// partition count (sampled generation; see DESIGN.md).
func TPCDSQueryAt(id string, sf, partitions int) Workload {
	return tpcds.NewQuery(id, sf, partitions).WithSample(4 * sf)
}
