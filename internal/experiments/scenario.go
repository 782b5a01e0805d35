// Package experiments reproduces the paper's evaluation (Section 5): the
// eight Metrics-and-Scenarios configurations, per-figure runners (Figures
// 1-2 and 4-9), marginal cost accounting, and text-table rendering. Every
// run is a deterministic discrete-event simulation; see DESIGN.md for the
// substitution notes and EXPERIMENTS.md for paper-vs-measured results.
package experiments

import (
	"fmt"
	"time"

	"splitserve/internal/billing"
	"splitserve/internal/cloud"
	"splitserve/internal/core"
	"splitserve/internal/eventlog"
	"splitserve/internal/hdfs"
	"splitserve/internal/metrics"
	"splitserve/internal/netsim"
	"splitserve/internal/perfstat"
	"splitserve/internal/s3q"
	"splitserve/internal/simclock"
	"splitserve/internal/simrand"
	"splitserve/internal/spark/engine"
	"splitserve/internal/storage"
	"splitserve/internal/telemetry"
	"splitserve/internal/workloads"
)

// appStartup is the fixed driver application startup time (JVM launch and
// context initialisation) included in every scenario's reported execution
// time, as the paper's wall-clock measurements include it.
const appStartup = 8 * time.Second

// Kind enumerates the paper's scenarios (Section 5.1).
type Kind int

// Scenario kinds.
const (
	// SparkSmallVM — "Spark r VM": under-provisioned vanilla Spark, no
	// autoscaling.
	SparkSmallVM Kind = iota + 1
	// SparkFullVM — "Spark R VM": adequately provisioned vanilla Spark.
	SparkFullVM
	// SparkAutoscale — "Spark r/R autoscale": vanilla Spark starts at r
	// and procures Δ more VM cores that boot after the VM startup delay.
	SparkAutoscale
	// QuboleLambda — "Qubole R La": all executors on Lambdas, S3 shuffle.
	QuboleLambda
	// SSFullVM — "SS R VM": SplitServe with all cores on VMs.
	SSFullVM
	// SSLambda — "SS R La": SplitServe all-Lambda, HDFS shuffle.
	SSLambda
	// SSHybrid — "SS r VM / Δ La": hybrid, no segue.
	SSHybrid
	// SSHybridSegue — "SS r VM / Δ La Segue": hybrid with segue to VM
	// cores that appear after SegueAt.
	SSHybridSegue
)

// Scenario is one {provisioning, system} configuration to run a workload
// under.
type Scenario struct {
	Kind Kind
	// R is the job's required core count; SmallR is r (< R) for the
	// under-provisioned scenarios.
	R      int
	SmallR int
	// WorkerVMType hosts VM executors; MasterVMType hosts the driver and
	// (for SplitServe) the colocated HDFS node.
	WorkerVMType cloud.VMType
	MasterVMType cloud.VMType
	// VMBoot pins the autoscale/segue VM arrival delay (0 = sample the
	// provider's distribution).
	VMBoot time.Duration
	// VMBootMean overrides the provider's boot-delay mean (sampled with
	// the provider's stddev) when VMBoot is not pinned.
	VMBootMean time.Duration
	// SegueAt pins when segue capacity appears (SSHybridSegue).
	SegueAt time.Duration
	// LambdaMemoryMB sizes Lambda executors (default 1536).
	LambdaMemoryMB int
	// ExecMemoryMB fixes per-executor memory on VMs (0 = hostMem/vCPUs),
	// mirroring spark.executor.memory.
	ExecMemoryMB int
	// LambdaTimeout is spark.lambda.executor.timeout for segue scenarios.
	LambdaTimeout time.Duration
	// QuboleLaunchDelay is the extra executor bootstrap cost of Qubole's
	// Spark-on-Lambda (it pulls the Spark runtime from S3 on start).
	QuboleLaunchDelay time.Duration
	// Seed drives all randomness.
	Seed uint64
	// Events, when set, receives the run's structured event stream (a
	// fresh bus is created otherwise; see Result.Events). Sharing one bus
	// across scenarios interleaves their streams — disambiguate with AppID.
	Events *eventlog.Bus
	// AppID overrides the default application ID ("<workload>-<kind>").
	AppID string
	// Perf overrides the executor performance model (zero = default).
	Perf engine.PerfModel
	// S3 overrides the object-store model for the Qubole baseline
	// (zero = s3q defaults).
	S3 s3q.Options
	// Profiler, when non-nil, collects host-side self-profiling for this
	// run (see internal/perfstat). Falls back to the package profiler set
	// with SetProfiler. Purely observational: the simulated result is
	// byte-identical with it on or off.
	Profiler *perfstat.Collector
}

// profiler is the package-level default self-profiler, for commands whose
// runs are built deep inside figure helpers (splitserve-bench) where
// threading a Scenario field through every signature would be noise.
var profiler *perfstat.Collector

// SetProfiler installs a default perfstat collector picked up by every
// subsequent Run whose Scenario.Profiler is nil (nil disables).
func SetProfiler(p *perfstat.Collector) { profiler = p }

// Name renders the paper's scenario label.
func (s Scenario) Name() string {
	switch s.Kind {
	case SparkSmallVM:
		return fmt.Sprintf("Spark %d VM", s.SmallR)
	case SparkFullVM:
		return fmt.Sprintf("Spark %d VM", s.R)
	case SparkAutoscale:
		return fmt.Sprintf("Spark %d/%d autoscale", s.SmallR, s.R)
	case QuboleLambda:
		return fmt.Sprintf("Qubole %d La", s.R)
	case SSFullVM:
		return fmt.Sprintf("SS %d VM", s.R)
	case SSLambda:
		return fmt.Sprintf("SS %d La", s.R)
	case SSHybrid:
		return fmt.Sprintf("SS %d VM / %d La", s.SmallR, s.R-s.SmallR)
	case SSHybridSegue:
		return fmt.Sprintf("SS %d VM / %d La Segue", s.SmallR, s.R-s.SmallR)
	default:
		return fmt.Sprintf("Kind(%d)", int(s.Kind))
	}
}

// Result is one scenario execution.
type Result struct {
	Scenario string
	Workload string
	ExecTime time.Duration
	CostUSD  float64
	ByKind   map[string]float64
	Answer   string
	// View gives access to the execution timeline (Figure 7) and the
	// task and stage spans.
	View *metrics.View
	// Telem is the run's telemetry hub: every counter, histogram, span and
	// mark the stack recorded, ready for -report export.
	Telem *telemetry.Hub
	// Events is the run's structured event stream (JSONL / Chrome trace).
	Events *eventlog.Bus
	// Lambdas/VMExecs are the executor mix that ran.
	Lambdas int
	VMExecs int
	// VMWork/LambdaWork split the executed tasks and busy time by
	// substrate.
	VMWork     engine.WorkStats
	LambdaWork engine.WorkStats
}

// Run executes workload w under scenario sc and returns execution time and
// marginal cost, "the cost incurred towards the job in question" (the
// always-on master/HDFS node is common to every scenario and excluded,
// as the paper's marginal accounting does).
func Run(sc Scenario, w workloads.Workload) (*Result, error) {
	if sc.R <= 0 {
		return nil, fmt.Errorf("experiments: scenario needs R > 0")
	}
	if sc.LambdaMemoryMB == 0 {
		sc.LambdaMemoryMB = 1536
	}
	if err := (cloud.LambdaConfig{MemoryMB: sc.LambdaMemoryMB}).Validate(cloud.DefaultOptions().Limits); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	if sc.MasterVMType.VCPUs == 0 {
		sc.MasterVMType = cloud.M4XLarge
	}
	if sc.WorkerVMType.VCPUs == 0 {
		sc.WorkerVMType, _ = cloud.SmallestFor(sc.R)
	}

	clock := simclock.New(simclock.Epoch)
	net := netsim.New(clock)
	hub := telemetry.New(clock)
	bus := sc.Events
	if bus == nil {
		bus = eventlog.NewBus(simclock.Epoch)
	}
	prof := sc.Profiler
	if prof == nil {
		prof = profiler
	}
	prof.AttachClock(clock)
	prof.ObserveBus(bus)
	appID := sc.AppID
	if appID == "" {
		appID = fmt.Sprintf("%s-%d", w.Name(), sc.Kind)
	}
	provOpts := cloud.DefaultOptions()
	if sc.VMBootMean > 0 {
		provOpts.VMBootMean = sc.VMBootMean
	}
	provider := cloud.NewProvider(clock, net, simrand.New(sc.Seed+1), provOpts)
	provider.SetTelemetry(hub)
	provider.SetEventLog(bus)

	// The long-running master (and, for SplitServe, the colocated HDFS
	// datanode sharing its EBS bandwidth — the paper's bottleneck story).
	master := provider.ProvisionReadyVM(sc.MasterVMType)
	fs := hdfs.NewCluster(clock, net, []*netsim.Pool{master.EBS})
	fs.SetTelemetry(hub)
	fs.SetEventLog(bus, appID)

	s3opts := sc.S3
	if s3opts == (s3q.Options{}) {
		s3opts = s3q.DefaultOptions()
	}
	objStore := s3q.New(clock, net, s3opts)

	// Pre-existing workers: enough instances to host R cores.
	workerType := sc.WorkerVMType
	nWorkers := (sc.R + workerType.VCPUs - 1) / workerType.VCPUs
	var workers []*cloud.VM
	for i := 0; i < nWorkers; i++ {
		workers = append(workers, provider.ProvisionReadyVM(workerType))
	}
	initialIDs := map[string]bool{master.ID: true}
	for _, vm := range workers {
		initialIDs[vm.ID] = true
	}

	var (
		backend engine.Backend
		store   storage.Store
		alloc   engine.AllocConfig
		ss      *core.SplitServe
	)
	switch sc.Kind {
	case SparkSmallVM:
		store = storage.NewLocal(clock, net)
		backend = engine.NewStandalone(engine.StandaloneConfig{
			VMs: workers, UsableCores: sc.SmallR, ExecMemoryMB: sc.ExecMemoryMB,
		})
		alloc = engine.DefaultAllocConfig(engine.AllocStatic, sc.SmallR, sc.R)
	case SparkFullVM:
		store = storage.NewLocal(clock, net)
		backend = engine.NewStandalone(engine.StandaloneConfig{
			VMs: workers, UsableCores: sc.R, ExecMemoryMB: sc.ExecMemoryMB,
		})
		alloc = engine.DefaultAllocConfig(engine.AllocStatic, sc.R, sc.R)
	case SparkAutoscale:
		store = storage.NewLocal(clock, net)
		scaleType, _ := cloud.SmallestFor(sc.R - sc.SmallR)
		backend = engine.NewStandalone(engine.StandaloneConfig{
			VMs: workers, UsableCores: sc.SmallR,
			Autoscale: true, ScaleVMType: scaleType, BootOverride: sc.VMBoot,
			ExecMemoryMB: sc.ExecMemoryMB,
		})
		alloc = engine.DefaultAllocConfig(engine.AllocDynamic, sc.SmallR, sc.R)
	case QuboleLambda:
		store = objStore.Bucket("qubole-shuffle")
		qcfg := core.DefaultConfig(nil, 0)
		qcfg.LambdaMemoryMB = sc.LambdaMemoryMB
		qcfg.LambdaExecLaunchDelay = sc.QuboleLaunchDelay
		if qcfg.LambdaExecLaunchDelay == 0 {
			qcfg.LambdaExecLaunchDelay = 10 * time.Second
		}
		ss = core.New(qcfg)
		backend = ss
		alloc = engine.DefaultAllocConfig(engine.AllocStatic, sc.R, sc.R)
	case SSFullVM, SSLambda, SSHybrid, SSHybridSegue:
		store = fs
		free := 0
		switch sc.Kind {
		case SSFullVM:
			free = sc.R
		case SSLambda:
			free = 0
		default:
			free = sc.SmallR
		}
		cfg := core.DefaultConfig(workers, free)
		cfg.LambdaMemoryMB = sc.LambdaMemoryMB
		cfg.ExecMemoryMB = sc.ExecMemoryMB
		if sc.Kind == SSHybridSegue {
			cfg.Segue = true
			segueType, _ := cloud.SmallestFor(sc.R - sc.SmallR)
			cfg.SegueVMType = segueType
			cfg.SegueBootOverride = sc.SegueAt
			if sc.LambdaTimeout > 0 {
				cfg.LambdaExecutorTimeout = sc.LambdaTimeout
			}
		}
		ss = core.New(cfg)
		backend = ss
		alloc = engine.DefaultAllocConfig(engine.AllocStatic, sc.R, sc.R)
	default:
		return nil, fmt.Errorf("experiments: unknown scenario kind %d", sc.Kind)
	}

	cluster, err := engine.New(engine.Config{
		AppID:               appID,
		Clock:               clock,
		Net:                 net,
		Provider:            provider,
		Store:               store,
		Backend:             backend,
		Telem:               hub,
		Events:              bus,
		Alloc:               alloc,
		Perf:                sc.Perf,
		SLO:                 w.SLO(),
		StageLaunchOverhead: engine.DefaultStageLaunchOverhead,
		TaskDispatchCost:    engine.DefaultTaskDispatchCost,
	})
	if err != nil {
		return nil, err
	}
	// Only single-job runs export spans (-report json, Figure 7), so this
	// is the one place that rebuilds them from the engine's events.
	view := metrics.Attach(bus, clock, hub, appID)
	defer view.Detach()

	report, err := w.Run(cluster)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s under %s: %w", w.Name(), sc.Name(), err)
	}
	if ss != nil {
		ss.Shutdown()
	}

	res := &Result{
		Scenario: sc.Name(),
		Workload: w.Name(),
		// Reported execution time includes the driver application startup
		// (JVM boot, SparkContext init) every scenario pays identically.
		ExecTime: report.Elapsed + appStartup,
		Answer:   report.Answer,
		View:     view,
		Telem:    hub,
		Events:   bus,
	}
	for _, e := range cluster.AllExecutors() {
		switch e.Kind {
		case engine.ExecVM:
			res.VMExecs++
		case engine.ExecLambda:
			res.Lambdas++
		}
	}
	dist := cluster.WorkDistribution()
	res.VMWork = dist[engine.ExecVM]
	res.LambdaWork = dist[engine.ExecLambda]

	meter := billMarginal(cluster, provider, objStore, initialIDs, master.ID, clock.Now(), hub)
	res.CostUSD = meter.Total()
	res.ByKind = meter.TotalByKind()
	return res, nil
}

// billMarginal computes the job's marginal cost: pre-existing worker VM
// cores are charged proportionally for their peak concurrent use over the
// job; VMs procured during the run (autoscale, segue) are charged in full
// from request to job end; Lambdas per billed duration; S3 per request.
func billMarginal(cluster *engine.Cluster, provider *cloud.Provider, objStore *s3q.Store, initialIDs map[string]bool, masterID string, end time.Time, hub *telemetry.Hub) *billing.Meter {
	var meter billing.Meter
	meter.SetTelemetry(hub)

	// Peak concurrent executors per pre-existing host.
	peak := map[string]int{}
	liveNow := map[string]int{}
	type ev struct {
		at    time.Time
		host  string
		delta int
	}
	var evs []ev
	for _, e := range cluster.AllExecutors() {
		if e.Kind != engine.ExecVM {
			continue
		}
		evs = append(evs, ev{at: e.RegisteredAt, host: e.HostID, delta: 1})
		if e.State == engine.ExecDead {
			evs = append(evs, ev{at: e.RemovedAt, host: e.HostID, delta: -1})
		}
	}
	// Events are appended in registration order; a stable pass suffices
	// for peak tracking (removal never precedes registration).
	for _, e := range evs {
		if e.delta > 0 {
			liveNow[e.host]++
			if liveNow[e.host] > peak[e.host] {
				peak[e.host] = liveNow[e.host]
			}
		}
	}

	duration := end.Sub(simclock.Epoch)
	for _, vm := range provider.VMs() {
		if vm.ID == masterID {
			continue // common to all scenarios; excluded from marginal cost
		}
		if initialIDs[vm.ID] {
			if used := peak[vm.ID]; used > 0 {
				meter.AddVM(vm.ID, vm.Type.PricePerHour, vm.Type.VCPUs, used, duration)
			}
			continue
		}
		// Procured during the run: billed in full from the request.
		meter.Add(billing.Item{
			Kind:     "vm",
			Ref:      vm.ID + " (procured)",
			Duration: vm.Uptime(end),
			USD:      billing.VMCost(vm.Type.PricePerHour, vm.Uptime(end)),
		})
	}
	for _, l := range provider.Lambdas() {
		meter.AddLambda(l.ID, l.Config.MemoryMB, l.BilledDuration(end))
	}
	puts, gets := objStore.Counts("qubole-shuffle")
	if puts+gets > 0 {
		meter.AddS3("qubole-shuffle", puts, gets)
	}
	return &meter
}
