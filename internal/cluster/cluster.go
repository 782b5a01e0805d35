// Package cluster is the multi-job layer above the intra-job engine: a
// scheduler admits a stream of real task-graph jobs (the existing
// workloads) against one shared VM core pool, with pluggable sharing
// policies (FIFO, max-min fair), per-job SLO deadlines, and the paper's
// three shortfall strategies — queue on what's free, autoscale more VMs,
// or bridge the gap with Lambdas (SplitServe). It is the discrete-event
// counterpart of internal/autoscale's fluid day simulation: the same
// arrival trace can be replayed through both and cross-checked.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"splitserve/internal/autoscale"
	"splitserve/internal/billing"
	"splitserve/internal/cloud"
	"splitserve/internal/eventlog"
	"splitserve/internal/hdfs"
	"splitserve/internal/netsim"
	"splitserve/internal/perfstat"
	"splitserve/internal/seqid"
	"splitserve/internal/simclock"
	"splitserve/internal/simrand"
	"splitserve/internal/spark/engine"
	"splitserve/internal/spark/shuffle"
	"splitserve/internal/storage"
	"splitserve/internal/telemetry"
	"splitserve/internal/warmpool"
	"splitserve/internal/workloads"
)

const (
	// lambdaMemoryMB sizes bridged Lambda executors (one vCPU).
	lambdaMemoryMB = 1536
	// hybridSlowdown is the fluid-model execution multiplier of a bridged
	// job, used by deadline admission's ETA (the calibrated daysim
	// constant).
	hybridSlowdown = 1.10
)

// newClock builds the simulation clock. A package variable so the
// cross-implementation determinism tests can swap in
// simclock.NewHeapBacked and assert that the timer wheel produces
// byte-identical reports and event logs.
var newClock = simclock.New

// Strategy re-exports the shortfall strategies shared with the fluid day
// model, so both layers speak the same vocabulary.
type Strategy = autoscale.Strategy

// Strategies.
const (
	StrategyQueue     = autoscale.StrategyQueue
	StrategyAutoscale = autoscale.StrategyAutoscale
	StrategyBridge    = autoscale.StrategyBridge
)

// StrategyByName resolves "queue", "autoscale" or "bridge".
func StrategyByName(name string) (Strategy, error) {
	switch name {
	case "queue":
		return StrategyQueue, nil
	case "autoscale":
		return StrategyAutoscale, nil
	case "bridge":
		return StrategyBridge, nil
	default:
		return 0, fmt.Errorf("cluster: unknown strategy %q (accepted: queue, autoscale, bridge)", name)
	}
}

// JobSpec is one job submitted to the cluster.
type JobSpec struct {
	// Name labels the job in reports (defaults to the workload name).
	Name string
	// Workload must be a fresh instance — the scheduler runs it once.
	Workload workloads.Workload
	// Cores is the job's full-provisioning demand R.
	Cores int
	// Arrival is the submission offset from the start of the run.
	Arrival time.Duration
	// Tenant labels the submitting tenant in multi-tenant runs (empty for
	// single-tenant streams). The sharded control plane hashes it to pick
	// the job's home shard; reports carry it through per-tenant tables.
	Tenant string
	// Baseline is the job's execution time at full provisioning (see
	// Baseline); the SLO deadline is SLOFactor × Baseline and stretch is
	// measured against it.
	Baseline time.Duration
	// Pick, when set, records the cost manager's allocation decision
	// that produced Cores. The scheduler emits it as a cost_pick event
	// on arrival and the report compares its predictions against the
	// realized run time and cost, so prediction error is observable.
	Pick *CostPick
}

// CostPick is a cost-manager allocation decision attached to a JobSpec
// (-cores auto). The cluster layer only carries and reports it; the
// decision itself is made by internal/costmgr above this package.
type CostPick struct {
	// Policy names the allocation policy (min-cost, min-time, knee).
	Policy string
	// PredictedRun / PredictedCostUSD are the profile's predictions at
	// the chosen R (zero when Source is "fallback").
	PredictedRun     time.Duration
	PredictedCostUSD float64
	// Source is "profile" or "fallback" (no profile for the workload).
	Source string
}

// Config assembles a Scheduler.
type Config struct {
	Jobs []JobSpec
	// PoolCores sizes the shared VM pool, built from m4.xlarge instances
	// (the type autoscaling procures too).
	PoolCores int
	// Policy divides pool cores among active jobs (FIFO or FairShare).
	Policy Policy
	// Strategy is the response to a job's core shortfall.
	Strategy Strategy
	// SLOFactor: a job violates its SLO when it finishes later than
	// arrival + SLOFactor × Baseline.
	SLOFactor float64
	// Admission selects the admission policy (default AdmissionGreedy);
	// AdmissionDeadline delays or sheds jobs whose SLO is unattainable.
	Admission Admission
	// ScaleDownIdle, when > 0, releases autoscale-procured VMs back to
	// the provider after they have been fully idle this long (0 keeps
	// them pooled for the rest of the run, the pre-elasticity behavior).
	ScaleDownIdle time.Duration
	// WarmPool, when > 0, provisions a target-tracked pool of that many
	// pre-initialized Lambda environments (provisioned concurrency):
	// bridged executors launched on them start warm, and their idle time
	// is billed at the provisioned-idle rate as a separate line item.
	WarmPool int
	// TmpCache layers a function-local /tmp shuffle cache tier in front
	// of the shared store: warm-pool environments keep an LRU copy
	// (512 MB cap) of blocks they write or fetch, so repeat shuffle
	// reads skip the network. Requires WarmPool > 0 to have any effect.
	TmpCache bool
	// ColdStarts models a cold ambient Lambda fleet: the provider begins
	// with zero pre-warmed environments, so first invocations pay the
	// full cold-start latency (warm reuse still kicks in as invocations
	// finish). Default false keeps the historical always-warm ambient
	// fleet; turn it on to make the warm pool's latency value visible.
	ColdStarts bool
	// Alloc labels how per-job core demands were chosen ("fixed", or the
	// cost-manager policy behind -cores auto); it is echoed in the
	// report so saved reports are self-describing.
	Alloc string
	// VMBootOverride pins the boot delay of autoscale-procured VMs
	// (0 = sample the provider's distribution).
	VMBootOverride time.Duration
	// Clock, when non-nil, is an externally owned simulation clock. The
	// sharded control plane (internal/shard) passes one clock to every
	// shard so N independent schedulers advance in lockstep; it then
	// drives them itself via Start/Pump/Done/Finalize instead of Run.
	// Default nil builds a private clock, the historical behavior.
	Clock *simclock.Clock
	// IDPrefix prefixes every job's app ID and executor prefix ("s2-"
	// under the sharded control plane) so merged event streams from
	// several schedulers stay collision-free. Empty (the default)
	// preserves the historical j%03d-NAME IDs byte-for-byte.
	IDPrefix string
	Seed     uint64
	// MaxSimTime bounds the whole run (default 48h).
	MaxSimTime time.Duration
	// Prof, when non-nil, collects host-side self-profiling (wall time
	// per clock step, per workload resume, run-queue depth, event-type
	// counts). It only observes — same-seed reports and event logs stay
	// byte-identical with profiling on or off.
	Prof *perfstat.Collector
}

type jobPhase int

const (
	// jobPending (the zero phase): submitted but not yet arrived.
	jobPending jobPhase = iota
	jobQueued
	jobRunning
	jobDone
	jobFailed
	// jobShed: rejected by deadline-aware admission before running.
	jobShed
	// jobMigrated: stolen by the sharded control plane's work-stealing
	// pass while queued; it settles here (excluded from this scheduler's
	// report) and re-runs on the destination shard.
	jobMigrated
	numPhases
)

type job struct {
	spec       JobSpec
	id         int
	appID      string
	execPrefix string

	phase      jobPhase
	arrivalAt  time.Time
	admittedAt time.Time
	finishedAt time.Time

	// target is the job's current policy entitlement, refreshed each
	// scheduling pass.
	target int

	backend *jobBackend
	cluster *engine.Cluster
	co      *coroutine
	err     error

	// The job's report row reads only these, settled by finish: the
	// workload name its report gave, its work split and its bill. Nothing
	// else of the job's run outlives it (see finish).
	workload                    string
	workDist                    engine.WorkSplit
	costVM, costLambda, costUSD float64

	// delayed records that deadline admission held the job back at least
	// once; shedReason is set when admission rejected it outright.
	delayed    bool
	shedReason string

	// injected marks a job stolen in from another shard: its presetArrival
	// preserves the original submission instant (SLO deadlines and queue
	// wait stay measured from true submission), and the stealing pass
	// never re-steals it.
	injected      bool
	presetArrival time.Time
}

func (j *job) active() bool { return j.phase == jobQueued || j.phase == jobRunning }

// allowance is the job's SLO deadline duration.
func (j *job) allowance(factor float64) time.Duration {
	return time.Duration(factor * float64(j.spec.Baseline))
}

// clusterInstruments are the scheduler's telemetry handles.
type clusterInstruments struct {
	jobsArrived   *telemetry.Counter
	jobsCompleted *telemetry.Counter
	jobsFailed    *telemetry.Counter
	jobsShed      *telemetry.Counter
	jobsDelayed   *telemetry.Counter
	sloViolations *telemetry.Counter
	segueGrants   *telemetry.Counter
	vmsReleased   *telemetry.Counter
	jobsQueued    *telemetry.Gauge
	jobsRunning   *telemetry.Gauge
	queueWait     *telemetry.Histogram
	stretch       *telemetry.Histogram
}

func newClusterInstruments(h *telemetry.Hub) *clusterInstruments {
	return &clusterInstruments{
		jobsArrived:   h.Counter("cluster_jobs_arrived_total"),
		jobsCompleted: h.Counter("cluster_jobs_completed_total"),
		jobsFailed:    h.Counter("cluster_jobs_failed_total"),
		jobsShed:      h.Counter("cluster_jobs_shed_total"),
		jobsDelayed:   h.Counter("cluster_jobs_delayed_total"),
		sloViolations: h.Counter("cluster_slo_violations_total"),
		segueGrants:   h.Counter("cluster_segue_core_grants_total"),
		vmsReleased:   h.Counter("cluster_vms_released_idle_total"),
		jobsQueued:    h.Gauge("cluster_jobs_queued"),
		jobsRunning:   h.Gauge("cluster_jobs_running"),
		// Queue waits in a busy cluster run to minutes or hours, well past
		// DefBuckets' 250s ceiling — use explicit bounds up to 2h.
		queueWait: h.Histogram("cluster_queue_wait_seconds", []float64{
			1, 5, 15, 30, 60, 120, 300, 600, 1200, 1800, 3600, 7200,
		}),
		stretch: h.Histogram("cluster_job_stretch", []float64{1, 1.1, 1.25, 1.5, 2, 3, 5, 10, 20}),
	}
}

// Scheduler runs a multi-job day against one shared pool. Build with New,
// drive with Run (once).
type Scheduler struct {
	cfg  Config
	jobs []*job

	clock    *simclock.Clock
	net      *netsim.Network
	hub      *telemetry.Hub
	provider *cloud.Provider
	fs       *hdfs.Cluster
	pool     *cloud.CorePool
	bus      *eventlog.Bus
	insts    *clusterInstruments
	// store is what job engines read and write shuffle through: the HDFS
	// view, wrapped by tmpCache when Config.TmpCache is on.
	store storage.Store
	// warm is the provisioned-concurrency pool (nil when WarmPool = 0).
	warm     *warmpool.Pool
	tmpCache *warmpool.TmpCache

	baseVMs  []*cloud.VM
	procured []*cloud.VM
	// active is the ID-ordered list of arrived jobs that were unsettled at
	// the last scheduling pass — the pass's working set, compacted only
	// when some job settled since, so a pass costs O(active), not O(total
	// jobs). ID order matches the former iterate-all-jobs order, which
	// admission and policy grants depend on.
	active []*job
	// inPhase counts the jobs in each phase (see setPhase), so the exit
	// test, the gauges, scale-down and the steal probe read counts
	// instead of scanning the working set.
	inPhase [numPhases]int
	// parked counts running jobs whose workload is parked in
	// engine.RunJob waiting for its engine job to complete; parks numbers
	// every park so far (see coroutine.parkSeq).
	parked int
	parks  uint64
	// runq is the batch of parked jobs whose engine jobs completed, in
	// completion order, for Pump to resume.
	runq []*job
	// pendingProcureCores tracks autoscale requests in flight so one
	// shortfall doesn't procure twice.
	pendingProcureCores int
	// scaleCheck marks procured VMs with an idle-timeout check pending.
	scaleCheck map[string]bool

	kicked bool
	ran    bool

	// prof is the optional self-profiler (nil = off, all calls no-ops).
	prof *perfstat.Collector
}

// New validates cfg and assembles the shared simulation: clock, network,
// provider, an HDFS namenode on a master VM, and the core pool.
func New(cfg Config) (*Scheduler, error) {
	if len(cfg.Jobs) == 0 {
		return nil, errors.New("cluster: no jobs")
	}
	if cfg.PoolCores < 1 {
		return nil, errors.New("cluster: PoolCores must be >= 1")
	}
	if cfg.Policy == nil {
		cfg.Policy = FairShare()
	}
	if cfg.Strategy == 0 {
		cfg.Strategy = StrategyBridge
	}
	if cfg.SLOFactor == 0 {
		cfg.SLOFactor = 1.5
	}
	if cfg.Admission == 0 {
		cfg.Admission = AdmissionGreedy
	}
	if cfg.ScaleDownIdle < 0 {
		return nil, errors.New("cluster: ScaleDownIdle must be >= 0")
	}
	if cfg.WarmPool < 0 {
		return nil, errors.New("cluster: WarmPool must be >= 0")
	}
	if cfg.Alloc == "" {
		cfg.Alloc = "fixed"
	}
	if cfg.MaxSimTime == 0 {
		cfg.MaxSimTime = 48 * time.Hour
	}
	for i, spec := range cfg.Jobs {
		if spec.Workload == nil {
			return nil, fmt.Errorf("cluster: job %d has no workload", i)
		}
		if spec.Cores < 1 {
			return nil, fmt.Errorf("cluster: job %d demands %d cores", i, spec.Cores)
		}
		if spec.Baseline <= 0 {
			return nil, fmt.Errorf("cluster: job %d has no baseline (run Baseline first)", i)
		}
	}

	clock := cfg.Clock
	if clock == nil {
		clock = newClock(simclock.Epoch)
	}
	net := netsim.New(clock)
	hub := telemetry.NewUntraced()
	bus := eventlog.NewBus(simclock.Epoch)
	provOpts := cloud.DefaultOptions()
	if cfg.ColdStarts {
		provOpts.WarmPoolSize = 0
	}
	provider := cloud.NewProvider(clock, net, simrand.New(cfg.Seed+1), provOpts)
	provider.SetTelemetry(hub)
	provider.SetEventLog(bus)

	// The master hosts the namenode and datanode; pool VMs run executors.
	master := provider.ProvisionReadyVM(cloud.M4XLarge)
	fs := hdfs.NewCluster(clock, net, []*netsim.Pool{master.EBS})
	fs.SetTelemetry(hub)
	fs.SetEventLog(bus, "")

	pool := cloud.NewCorePool()
	pool.SetTelemetry(hub)
	pool.SetEventLog(bus, clock.Now)
	var baseVMs []*cloud.VM
	for pool.Capacity() < cfg.PoolCores {
		vm := provider.ProvisionReadyVM(cloud.M4XLarge)
		pool.AddVM(vm)
		baseVMs = append(baseVMs, vm)
	}

	// Optional warm-pool substrate: a /tmp cache tier in front of HDFS
	// (sized by the platform's per-environment ephemeral cap) and a
	// provisioned-concurrency pool whose environment lifetime is the
	// platform's. Environment recycling drops the environment's cache.
	store := storage.Store(fs)
	var tmpCache *warmpool.TmpCache
	if cfg.TmpCache {
		tmpCache = warmpool.NewTmpCache(clock, bus, store, warmpool.CacheOptions{
			CapacityBytes: provider.Limits().TmpBytes,
		})
		store = tmpCache
	}
	var warm *warmpool.Pool
	if cfg.WarmPool > 0 {
		var err error
		warm, err = warmpool.NewPool(clock, bus, warmpool.Config{
			MemoryMB:    lambdaMemoryMB,
			Target:      cfg.WarmPool,
			EnvLifetime: provider.Limits().MaxLifetime,
		})
		if err != nil {
			return nil, err
		}
		if tmpCache != nil {
			warm.SetOnExpire(tmpCache.Recycle)
		}
	}

	s := &Scheduler{
		cfg: cfg, clock: clock, net: net, hub: hub,
		provider: provider, fs: fs, pool: pool, bus: bus,
		insts: newClusterInstruments(hub), baseVMs: baseVMs,
		store: store, warm: warm, tmpCache: tmpCache,
		scaleCheck: make(map[string]bool), prof: cfg.Prof,
	}
	s.prof.AttachClock(clock)
	s.prof.ObserveBus(bus)
	for _, spec := range cfg.Jobs {
		if spec.Name == "" {
			spec.Name = spec.Workload.Name()
		}
		s.addJob(spec)
	}
	// Each job holds its own spec from here; a settled job drops its
	// workload, which this slice would otherwise keep for the whole run.
	s.cfg.Jobs = nil
	return s, nil
}

// AppID is the app ID of the id-th job submitted to a scheduler whose
// Config.IDPrefix is idPrefix: "<idPrefix>j<id>-<name>", with id
// zero-padded to three digits. The job's executor IDs share the part
// before the dash.
func AppID(idPrefix string, id int, name string) string {
	return execPrefix(idPrefix, id) + "-" + name
}

func execPrefix(idPrefix string, id int) string {
	var buf [32]byte
	return string(seqid.Append(append(append(buf[:0], idPrefix...), 'j'), id, 3))
}

// addJob numbers spec as the scheduler's next job, in the pending phase.
func (s *Scheduler) addJob(spec JobSpec) *job {
	id := len(s.jobs)
	prefix := execPrefix(s.cfg.IDPrefix, id)
	j := &job{spec: spec, id: id, appID: prefix + "-" + spec.Name, execPrefix: prefix}
	s.jobs = append(s.jobs, j)
	s.inPhase[jobPending]++
	return j
}

// setPhase moves j to phase p, keeping the per-phase counts.
func (s *Scheduler) setPhase(j *job, p jobPhase) {
	s.inPhase[j.phase]--
	j.phase = p
	s.inPhase[p]++
}

// Events exposes the run's structured event stream (for -eventlog/-trace).
func (s *Scheduler) Events() *eventlog.Bus { return s.bus }

// emit sends one scheduler-level event for job j.
func (s *Scheduler) emit(t eventlog.Type, j *job, mutate func(*eventlog.Event)) {
	ev := eventlog.Ev(t)
	ev.App = j.appID
	ev.Note = j.spec.Name
	if mutate != nil {
		mutate(&ev)
	}
	s.bus.Emit(s.clock.Now(), ev)
}

// Clock exposes the shared virtual clock.
func (s *Scheduler) Clock() *simclock.Clock { return s.clock }

// Run plays the whole job stream to completion and reports. It may be
// called once. It is exactly Start + the Step/Pump drive loop + Finalize;
// the sharded control plane calls those pieces directly so N schedulers
// on one shared clock advance in lockstep.
func (s *Scheduler) Run() (*Report, error) {
	if err := s.Start(); err != nil {
		return nil, err
	}
	deadline := simclock.Epoch.Add(s.cfg.MaxSimTime)
	for !s.Done() && s.clock.Now().Before(deadline) {
		if !s.clock.Step() {
			break
		}
		s.Pump()
	}
	return s.Finalize(), nil
}

// Start registers every job's arrival on the clock. It may be called
// once; after it, the caller drives the clock (Step) and calls Pump after
// every step until Done, then Finalize.
func (s *Scheduler) Start() error {
	if s.ran {
		return errors.New("cluster: Run may only be called once")
	}
	s.ran = true
	for _, j := range s.jobs {
		j := j
		s.clock.At(simclock.Epoch.Add(j.spec.Arrival), func() { s.onArrival(j) })
	}
	return nil
}

// Done reports whether every submitted (or injected) job has settled.
func (s *Scheduler) Done() bool {
	return s.inPhase[jobPending]+s.inPhase[jobQueued]+s.inPhase[jobRunning] == 0
}

// Finalize ends the run: whatever is still parked is stalled (or past
// the deadline), so abort the parked workloads, fail still-active jobs,
// stop the warm pool, and build the report. Call once, after the drive
// loop exits.
func (s *Scheduler) Finalize() *Report {
	// An aborted workload settles itself through finish before stop
	// returns; Pump then resumes whatever the abort woke.
	var parked []*coroutine
	for _, j := range s.jobs {
		if j.co != nil && j.co.parkSeq != 0 {
			parked = append(parked, j.co)
		}
	}
	sort.Slice(parked, func(a, b int) bool { return parked[a].parkSeq < parked[b].parkSeq })
	for _, co := range parked {
		s.resume(co, true)
		s.Pump()
	}
	for _, j := range s.jobs {
		if j.active() {
			s.setPhase(j, jobFailed)
			j.finishedAt = s.clock.Now()
			j.err = fmt.Errorf("cluster: job %s never completed (queued or stalled)", j.appID)
			j.spec.Workload = nil
			s.insts.jobsFailed.Inc()
		}
	}
	if s.warm != nil {
		s.warm.Stop()
	}
	s.updateGauges()
	return s.buildReport()
}

// kick coalesces any number of state changes into one scheduling pass at
// the current instant.
func (s *Scheduler) kick() {
	if s.kicked {
		return
	}
	s.kicked = true
	s.clock.After(0, func() {
		s.kicked = false
		s.schedule()
	})
}

func (s *Scheduler) onArrival(j *job) {
	s.setPhase(j, jobQueued)
	j.arrivalAt = s.clock.Now()
	if !j.presetArrival.IsZero() {
		// A stolen job keeps its original submission instant: the SLO
		// deadline and queue wait are measured from when the tenant
		// submitted it, not from when the steal landed it here.
		j.arrivalAt = j.presetArrival
	}
	s.insts.jobsArrived.Inc()
	// Insert into the active working set keeping ID order (arrival events
	// fire in time order, not ID order, under heterogeneous arrivals).
	i := sort.Search(len(s.active), func(k int) bool { return s.active[k].id > j.id })
	s.active = append(s.active, nil)
	copy(s.active[i+1:], s.active[i:])
	s.active[i] = j
	s.emit(eventlog.ClusterArrive, j, func(ev *eventlog.Event) { ev.Cores = j.spec.Cores })
	if p := j.spec.Pick; p != nil {
		s.emit(eventlog.CostPick, j, func(ev *eventlog.Event) {
			ev.Cores = j.spec.Cores
			ev.Note = fmt.Sprintf("%s pred_run_us=%d pred_cost_usd=%.6f src=%s",
				p.Policy, p.PredictedRun.Microseconds(), p.PredictedCostUSD, p.Source)
		})
	}
	s.kick()
}

// schedule is the single scheduling pass: policy entitlements, reclaims,
// admissions, core grants (segue-first), and autoscale procurement.
func (s *Scheduler) schedule() {
	// Compact the working set when some job settled since the last pass.
	if len(s.active) > s.inPhase[jobQueued]+s.inPhase[jobRunning] {
		kept := s.active[:0]
		for _, j := range s.active {
			if j.active() {
				kept = append(kept, j)
			}
		}
		clear(s.active[len(kept):])
		s.active = kept
	}
	active := s.active
	s.updateGauges()
	if len(active) == 0 {
		return
	}

	s.cfg.Policy.entitle(s.pool.Capacity(), active)

	// Reclaim from running jobs holding more than their entitlement.
	for _, j := range active {
		if j.phase != jobRunning {
			continue
		}
		if excess := j.backend.vmEffective() - j.target; excess > 0 {
			j.backend.reclaim(excess)
		}
	}

	// Admit queued jobs. Greedy admits once the entitlement reaches one
	// core (bridge unconditionally: the launching facility covers any
	// shortfall with Δ = R − r Lambdas, so there is nothing to queue
	// for); deadline-aware admission instead asks whether the SLO is
	// still attainable, delaying or shedding jobs that cannot make it.
	for _, j := range active {
		if j.phase != jobQueued {
			continue
		}
		if s.cfg.Admission == AdmissionDeadline {
			s.considerAdmission(j)
		} else if j.target >= 1 || s.cfg.Strategy == StrategyBridge {
			s.admit(j)
		}
	}

	// Grant free cores. Lambda-heavy jobs come first, longest-running
	// first — the cross-job segue: a freed VM core is worth most to the
	// job that has been paying the Lambda premium the longest. Admission
	// order is not ID order when arrivals are not, hence the sort.
	// Acquiring from a full pool is a no-op, so the phase runs only when
	// some core is free.
	if s.pool.Free() > 0 {
		var segueFirst []*job
		for _, j := range active {
			if j.phase == jobRunning && j.backend.fleet.LambdaLive > 0 {
				segueFirst = append(segueFirst, j)
			}
		}
		sort.SliceStable(segueFirst, func(a, b int) bool {
			return segueFirst[a].admittedAt.Before(segueFirst[b].admittedAt)
		})
		for _, j := range segueFirst {
			s.grant(j)
		}
		for _, j := range active {
			if j.phase == jobRunning && j.backend.fleet.LambdaLive == 0 {
				s.grant(j)
			}
		}
	}

	// Autoscale: procure VMs for the unmet demand, minus what is already
	// free or booting. Procured VMs join the pool permanently (unlike the
	// fluid model, which prices them per job — see DESIGN.md).
	if s.cfg.Strategy == StrategyAutoscale {
		unmet := 0
		for _, j := range active {
			if !j.active() { // shed by deadline admission this pass
				continue
			}
			held := 0
			if j.phase == jobRunning {
				held = j.backend.coresHeld()
			}
			if d := j.spec.Cores - held; d > 0 {
				unmet += d
			}
		}
		unmet -= s.pool.Free() + s.pendingProcureCores
		for unmet > 0 {
			t := cloud.M4XLarge
			s.pendingProcureCores += t.VCPUs
			unmet -= t.VCPUs
			ev := eventlog.Ev(eventlog.AutoscaleOrder)
			ev.Cores = t.VCPUs
			ev.Note = t.Name
			s.bus.Emit(s.clock.Now(), ev)
			s.provider.RequestVM(t, s.cfg.VMBootOverride, func(vm *cloud.VM) {
				s.pendingProcureCores -= vm.Type.VCPUs
				s.pool.AddVM(vm)
				s.procured = append(s.procured, vm)
				s.kick()
			})
		}
	}

	s.armScaleDown()
}

// grant leases free pool cores to running job j, up to its entitlement.
func (s *Scheduler) grant(j *job) {
	want := j.target - j.backend.vmEffective()
	if want <= 0 {
		return
	}
	leases := s.pool.Acquire(j.appID, want)
	if len(leases) == 0 {
		return
	}
	if j.backend.fleet.LambdaLive > 0 {
		s.insts.segueGrants.Add(float64(len(leases)))
		s.emit(eventlog.SegueCoreGrant, j, func(ev *eventlog.Event) { ev.Cores = len(leases) })
	}
	j.backend.addLeases(leases)
}

func (s *Scheduler) updateGauges() {
	queued := s.inPhase[jobQueued]
	s.insts.jobsQueued.Set(float64(queued))
	s.insts.jobsRunning.Set(float64(s.inPhase[jobRunning]))
	// Run-queue depth for the self-profiler: jobs waiting for cores plus
	// workloads parked awaiting resume.
	s.prof.SampleQueueDepth(queued + s.parked)
}

func (s *Scheduler) admit(j *job) {
	s.setPhase(j, jobRunning)
	j.admittedAt = s.clock.Now()
	s.insts.queueWait.ObserveDuration(s.clock.Since(j.arrivalAt))
	s.emit(eventlog.ClusterAdmit, j, func(ev *eventlog.Event) { ev.Cores = j.target })

	j.backend = newJobBackend(s, j)
	co := &coroutine{}
	j.co = co
	wake := func() { s.runq = append(s.runq, j) }
	c, err := engine.New(engine.Config{
		AppID:               j.appID,
		Clock:               s.clock,
		Net:                 s.net,
		Provider:            s.provider,
		Store:               s.store,
		Backend:             j.backend,
		Telem:               s.hub,
		Events:              s.bus,
		Alloc:               engine.DefaultAllocConfig(engine.AllocStatic, j.spec.Cores, j.spec.Cores),
		SLO:                 j.allowance(s.cfg.SLOFactor),
		StageLaunchOverhead: engine.DefaultStageLaunchOverhead,
		TaskDispatchCost:    engine.DefaultTaskDispatchCost,
		MaxSimTime:          s.cfg.MaxSimTime,
		Yield: func(register func(wake func())) bool {
			s.prof.CountYield()
			s.parks++
			co.parkSeq = s.parks
			s.parked++
			register(wake)
			ok := co.yield(struct{}{})
			co.parkSeq = 0
			s.parked--
			return ok
		},
	})
	if err != nil {
		s.finish(j, nil, err)
		return
	}
	j.cluster = c
	s.clock.After(0, func() { s.runJob(j) })
}

// Pump resumes the workloads whose engine jobs completed since the last
// call, in completion order, until the run-queue is empty — including any
// workload queued on the way. Exported for the sharded control plane's
// lockstep drive loop; Run calls it after every clock step.
func (s *Scheduler) Pump() {
	for len(s.runq) > 0 {
		j := s.runq[0]
		s.runq[0] = nil
		s.runq = s.runq[1:]
		s.resume(j.co, false)
	}
}

func (s *Scheduler) finish(j *job, rep *workloads.Report, err error) {
	now := s.clock.Now()
	j.finishedAt = now
	if rep != nil {
		j.workload = rep.Workload
	}
	j.err = err
	if err != nil {
		s.setPhase(j, jobFailed)
		s.insts.jobsFailed.Inc()
		s.emit(eventlog.ClusterFail, j, func(ev *eventlog.Event) { ev.Note = err.Error() })
	} else {
		s.setPhase(j, jobDone)
		s.insts.jobsCompleted.Inc()
		s.emit(eventlog.ClusterFinish, j, nil)
		stretch := float64(now.Sub(j.arrivalAt)) / float64(j.spec.Baseline)
		s.insts.stretch.Observe(stretch)
		if now.Sub(j.arrivalAt) > j.allowance(s.cfg.SLOFactor) {
			s.insts.sloViolations.Inc()
			s.emit(eventlog.SLOViolate, j, nil)
		}
	}
	// Bill the job: each VM executor is one core of its host for its
	// registered lifetime; each Lambda its fleet launched for its billed
	// duration. The job keeps the totals, not the meter's line items.
	var meter billing.Meter
	meter.SetTelemetry(s.hub)
	if j.cluster != nil {
		for _, e := range j.cluster.AllExecutors() {
			if e.Kind != engine.ExecVM || e.VM == nil {
				continue
			}
			end := e.RemovedAt
			if e.State != engine.ExecDead {
				end = now
			}
			meter.AddVM(e.HostID, e.VM.Type.PricePerHour, e.VM.Type.VCPUs, 1, end.Sub(e.RegisteredAt))
		}
		j.workDist = j.cluster.WorkDistribution()
	}
	for _, l := range j.backend.fleet.Lambdas() {
		meter.AddLambda(l.ID, lambdaMemoryMB, l.BilledDuration(now))
	}
	j.costVM, j.costLambda, j.costUSD = meter.Totals()
	// The job is settled: drop the scheduler's references to its
	// simulation state and its workload. That frees the engine, the
	// backend and the fleet's Lambda records only while nothing that
	// outlives the job reaches them. The provider keeps no invocation
	// ledger, and it clears an invocation's expiry callback (which closes
	// over the fleet, the backend and the engine) once the invocation
	// ends; netsim pools outlive the job too, so removed flows, whose done
	// callbacks reach tasks, leave no pointer in their slices.
	// TestLeakFinishedJobEngines holds every finished engine unreachable,
	// TestLeakEndedLambdas every Lambda record, egress pool and workload
	// report, TestLeakSettledJobWorkloads every workload. Launch callbacks
	// still in flight hold their own references and self-release on the
	// closed fleet.
	j.cluster = nil
	j.backend = nil
	j.co = nil
	j.spec.Workload = nil
	// The app is over, so its shuffle files go, as Spark's ContextCleaner
	// removes an ended application's shuffle data; otherwise its
	// map-output rows stay reachable through the namenode
	// (TestLeakFinishedJobShuffleRows). Its tasks were all cancelled when
	// its executors were removed, so nothing reads the files again, and
	// the writes they left in flight create nothing when they land.
	s.fs.RemoveDir(shuffle.AppDir(j.appID))
	s.kick()
}

// Baseline measures w's execution time on a dedicated fully provisioned
// cluster of the given size — the denominator of the job's stretch and
// the base of its SLO deadline. The run uses its own simulation; the
// caller's clock never moves.
func Baseline(w workloads.Workload, cores int, seed uint64) (time.Duration, error) {
	clock := newClock(simclock.Epoch)
	net := netsim.New(clock)
	provider := cloud.NewProvider(clock, net, simrand.New(seed+1), cloud.DefaultOptions())

	master := provider.ProvisionReadyVM(cloud.M4XLarge)
	fs := hdfs.NewCluster(clock, net, []*netsim.Pool{master.EBS})

	t, _ := cloud.SmallestFor(cores)
	var vms []*cloud.VM
	for got := 0; got < cores; got += t.VCPUs {
		vms = append(vms, provider.ProvisionReadyVM(t))
	}
	c, err := engine.New(engine.Config{
		AppID:               "baseline-" + w.Name(),
		Clock:               clock,
		Net:                 net,
		Provider:            provider,
		Store:               fs,
		Backend:             engine.NewStandalone(engine.StandaloneConfig{VMs: vms, UsableCores: cores}),
		Alloc:               engine.DefaultAllocConfig(engine.AllocStatic, cores, cores),
		StageLaunchOverhead: engine.DefaultStageLaunchOverhead,
		TaskDispatchCost:    engine.DefaultTaskDispatchCost,
	})
	if err != nil {
		return 0, err
	}
	rep, err := w.Run(c)
	if err != nil {
		return 0, err
	}
	return rep.Elapsed, nil
}

// BaselineCache calibrates each job shape once per core count: every job
// stream of one seed draws its baselines from one cache, so jobs of the
// same shape and demand share one Baseline run.
type BaselineCache struct {
	seed uint64
	m    map[baselineKey]time.Duration
}

type baselineKey struct {
	shape string
	cores int
}

// NewBaselineCache returns an empty cache calibrating at seed.
func NewBaselineCache(seed uint64) *BaselineCache {
	return &BaselineCache{seed: seed, m: map[baselineKey]time.Duration{}}
}

// Get returns the baseline of the job shape at cores, running Baseline on
// the workload mk builds the first time the pair is asked for.
func (c *BaselineCache) Get(shape string, cores int, mk func() workloads.Workload) (time.Duration, error) {
	k := baselineKey{shape, cores}
	if b, ok := c.m[k]; ok {
		return b, nil
	}
	b, err := Baseline(mk(), cores, c.seed)
	if err != nil {
		return 0, fmt.Errorf("baseline %s x%d: %w", shape, cores, err)
	}
	c.m[k] = b
	return b, nil
}
