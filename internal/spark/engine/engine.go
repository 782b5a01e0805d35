package engine

import (
	"errors"
	"fmt"
	"time"

	"splitserve/internal/cloud"
	"splitserve/internal/eventlog"
	"splitserve/internal/netsim"
	"splitserve/internal/simclock"
	"splitserve/internal/spark/rdd"
	"splitserve/internal/spark/shuffle"
	"splitserve/internal/storage"
	"splitserve/internal/telemetry"
)

// Engine errors.
var (
	// ErrStalled reports that the simulation ran out of events (or time)
	// before the job finished — usually no executors could be provided.
	ErrStalled = errors.New("engine: job stalled")
	// ErrTaskRetriesExhausted aborts a job whose task kept failing.
	ErrTaskRetriesExhausted = errors.New("engine: task retries exhausted")
)

// AllocMode selects static or dynamic executor allocation.
type AllocMode int

// Allocation modes.
const (
	AllocStatic AllocMode = iota + 1
	AllocDynamic
)

// Spark's defaults for dynamic allocation and delay scheduling.
const (
	// allocRampInterval is how often the backlog is evaluated; each
	// evaluation with sustained backlog doubles the number of executors
	// requested (Spark's exponential ramp-up).
	allocRampInterval = time.Second
	// allocIdleTimeout releases executors idle this long (Dynamic only;
	// spark.dynamicAllocation.executorIdleTimeout).
	allocIdleTimeout = 60 * time.Second
	// localityWait is how long a task holds out for the executor caching
	// its input before running anywhere (spark.locality.wait).
	localityWait = 3 * time.Second
)

// AllocConfig parameterises the ExecutorAllocationManager.
type AllocConfig struct {
	Mode AllocMode
	// Min/Max executor counts (Dynamic); Static uses Max from the start.
	Min, Max int
}

// DefaultAllocConfig returns the allocation config for mode between min
// and max executors.
func DefaultAllocConfig(mode AllocMode, min, max int) AllocConfig {
	return AllocConfig{Mode: mode, Min: min, Max: max}
}

// Config assembles a Cluster.
type Config struct {
	AppID    string
	Clock    *simclock.Clock
	Net      *netsim.Network
	Provider *cloud.Provider
	// Store is where shuffle blocks go (local, HDFS or S3).
	Store   storage.Store
	Backend Backend
	// Telem is the telemetry hub the engine records its metrics and
	// backend launch spans into. Nil records nothing.
	Telem *telemetry.Hub
	// Events, when set, receives the structured event stream: the engine
	// and its backends emit their job, stage, task and executor events on
	// it (tagged AppID) and the shuffle tracker emits read/write events.
	// Nil disables event logging.
	Events *eventlog.Bus
	Alloc  AllocConfig
	// MaxTaskAttempts aborts the job when one task fails this many times.
	MaxTaskAttempts int
	// SLO is the job's expected/required completion time, forwarded to the
	// backend (the segueing facility compares it to the VM startup delay).
	SLO time.Duration
	// StageLaunchOverhead models the driver-side cost of launching a stage
	// (DAG bookkeeping, task-set construction, broadcast of task binaries):
	// a stage's tasks become runnable this long after submission.
	StageLaunchOverhead time.Duration
	// TaskDispatchCost serialises task launches through the driver (task
	// serialization + scheduling RPC): the driver dispatches one task per
	// TaskDispatchCost, which bounds useful parallelism exactly as a real
	// Spark driver does (the downslope of the paper's Figure 4 U-curve).
	TaskDispatchCost time.Duration
	// MaxSimTime bounds one RunJob call in virtual time.
	MaxSimTime time.Duration
	// Yield, when set, makes RunJob cooperative: instead of stepping the
	// shared clock itself (which nests event loops when several engines
	// run concurrently), RunJob parks by calling Yield while an external
	// driver steps the clock. Yield's argument registers one wake
	// function, which the engine calls exactly once, when it marks the
	// job done — at once if the job is already done; the driver resumes
	// the parked caller from it. Yield returning false aborts the job as
	// stalled. Used by internal/cluster to interleave many engines on one
	// clock.
	Yield func(register func(wake func())) bool
}

// Cluster is the driver/session: it owns executors, the stage and task
// schedulers, the shuffle tracker, and runs jobs to completion on the
// simulation clock.
type Cluster struct {
	cfg     Config
	tracker *shuffle.Tracker
	execs   map[string]*Executor
	order   []string
	sched   *scheduler
	alloc   *allocManager
	insts   *engineInstruments

	jobSeq     int
	stageSeq   int
	shuffleSeq int
	shuffleIDs map[shuffleKey]int
	// cacheWhere locates cached partitions across executors (the driver's
	// BlockManagerMaster), kept current on put, eviction and executor loss.
	cacheWhere map[cachedPart]string
	job        *Job
	started    bool
}

// shuffleKey identifies one side of a wide dataset by object identity, so
// shuffle IDs are stable for a given plan graph but never collide across
// independently-built plans.
type shuffleKey struct {
	wide *rdd.RDD
	side int
}

// shuffleIDFor assigns (or returns) the cluster-wide shuffle ID for a wide
// dataset side.
func (c *Cluster) shuffleIDFor(wide *rdd.RDD, side int) int {
	k := shuffleKey{wide: wide, side: side}
	if id, ok := c.shuffleIDs[k]; ok {
		return id
	}
	id := c.shuffleSeq
	c.shuffleSeq++
	c.shuffleIDs[k] = id
	return id
}

// New validates cfg and assembles a Cluster.
func New(cfg Config) (*Cluster, error) {
	switch {
	case cfg.Clock == nil, cfg.Net == nil, cfg.Provider == nil:
		return nil, errors.New("engine: clock, net and provider are required")
	case cfg.Store == nil:
		return nil, errors.New("engine: shuffle store is required")
	case cfg.Backend == nil:
		return nil, errors.New("engine: backend is required")
	}
	if cfg.AppID == "" {
		cfg.AppID = "app"
	}
	if cfg.MaxTaskAttempts == 0 {
		cfg.MaxTaskAttempts = 4
	}
	if cfg.MaxSimTime == 0 {
		cfg.MaxSimTime = 24 * time.Hour
	}
	if cfg.Alloc.Mode == 0 {
		cfg.Alloc = DefaultAllocConfig(AllocStatic, 1, 1)
	}
	c := &Cluster{
		cfg:        cfg,
		tracker:    shuffle.NewTracker(),
		execs:      make(map[string]*Executor),
		shuffleIDs: make(map[shuffleKey]int),
		cacheWhere: make(map[cachedPart]string),
	}
	if cfg.Events != nil {
		c.tracker.SetEventLog(cfg.Events, cfg.Clock.Now, cfg.AppID)
	}
	c.insts = instrumentsFor(cfg.Telem)
	c.sched = newScheduler(c)
	c.alloc = newAllocManager(c)
	return c, nil
}

// Accessors used by backends and tests.

// Clock returns the simulation clock.
func (c *Cluster) Clock() *simclock.Clock { return c.cfg.Clock }

// Provider returns the cloud provider.
func (c *Cluster) Provider() *cloud.Provider { return c.cfg.Provider }

// Store returns the shuffle store.
func (c *Cluster) Store() storage.Store { return c.cfg.Store }

// Emit records one engine event on the event bus, stamped with the app ID
// and the current virtual time. Every job, stage, task and executor event
// of the engine and its backends goes through here, exactly once.
func (c *Cluster) Emit(ev eventlog.Event) {
	ev.App = c.cfg.AppID
	c.cfg.Events.Emit(c.cfg.Clock.Now(), ev)
}

// Tracker exposes the map-output tracker (tests, backends).
func (c *Cluster) Tracker() *shuffle.Tracker { return c.tracker }

// Start wires the backend and allocation manager. It must be called once
// before RunJob.
func (c *Cluster) Start() {
	if c.started {
		return
	}
	c.started = true
	c.cfg.Backend.Start(c)
	c.alloc.start()
}

// Executors returns live executors in registration order.
func (c *Cluster) Executors() []*Executor {
	out := make([]*Executor, 0, len(c.order))
	for _, id := range c.order {
		if e := c.execs[id]; e.State != ExecDead {
			out = append(out, e)
		}
	}
	return out
}

// AllExecutors returns every executor ever registered, including dead ones.
func (c *Cluster) AllExecutors() []*Executor {
	out := make([]*Executor, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.execs[id])
	}
	return out
}

// Executor returns one executor by ID (nil if unknown).
func (c *Cluster) Executor(id string) *Executor { return c.execs[id] }

// RegisterExecutor is called by the Backend when a new executor comes up.
func (c *Cluster) RegisterExecutor(spec ExecutorSpec) *Executor {
	if _, dup := c.execs[spec.ID]; dup {
		panic("engine: duplicate executor " + spec.ID)
	}
	if spec.CPUShare <= 0 {
		spec.CPUShare = 1
	}
	usable := float64(spec.MemoryMB) * (1 << 20) * (1 - memOverheadFraction)
	e := &Executor{
		ExecutorSpec: spec,
		State:        ExecFree,
		RegisteredAt: c.cfg.Clock.Now(),
		IdleSince:    c.cfg.Clock.Now(),
		cache:        newBlockCache(int64(usable * cacheFraction)),
	}
	c.execs[spec.ID] = e
	c.order = append(c.order, spec.ID)
	if local, ok := c.cfg.Store.(*storage.Local); ok {
		local.RegisterHost(spec.HostID, spec.Serve)
	}
	c.Emit(eventlog.Event{
		Type: eventlog.ExecutorAdd, Exec: spec.ID, Kind: spec.Kind.String(), Stage: -1, Task: -1,
		Cores: 1, // executors are one core each, as in the paper
	})
	c.insts.execLive[kindIdx(spec.Kind)].Inc()
	c.sched.onExecutorUp(e)
	return e
}

// RemoveExecutor kills an executor. hostLost reports that the hosting
// substrate died with it (a Lambda ending, a VM terminating): host-local
// shuffle blocks are dropped and, if the shuffle store is not durable,
// the tracker forgets the host's map outputs (Spark's
// removeOutputsOnExecutor) so dependent stages will be recomputed.
func (c *Cluster) RemoveExecutor(id string, hostLost bool, reason string) {
	e, ok := c.execs[id]
	if !ok || e.State == ExecDead {
		return
	}
	e.State = ExecDead
	e.RemovedAt = c.cfg.Clock.Now()
	c.Emit(eventlog.Event{
		Type: eventlog.ExecutorRemove, Exec: id, Kind: e.Kind.String(), Stage: -1, Task: -1, Note: reason,
	})
	c.insts.execLive[kindIdx(e.Kind)].Dec()
	if !e.DrainingAt.IsZero() {
		c.insts.execDrain[kindIdx(e.Kind)].ObserveDuration(e.RemovedAt.Sub(e.DrainingAt))
	}
	if hostLost {
		c.cfg.Store.DropHost(e.HostID)
		if !c.cfg.Store.Durable() {
			c.tracker.UnregisterHost(e.HostID)
		}
	}
	for key, owner := range c.cacheWhere {
		if owner == id {
			delete(c.cacheWhere, key)
		}
	}
	c.sched.onExecutorDown(e)
}

// DrainExecutor stops directing new tasks to an executor (the segue
// mechanism): it finishes its current task, after which the backend's
// ExecutorDrained hook fires.
func (c *Cluster) DrainExecutor(id string) {
	e, ok := c.execs[id]
	if !ok || e.State == ExecDead {
		return
	}
	prev := e.State
	if prev == ExecDraining {
		return
	}
	c.Emit(eventlog.Event{
		Type: eventlog.ExecutorDrain, Exec: id, Kind: e.Kind.String(), Stage: -1, Task: -1,
	})
	e.DrainingAt = c.cfg.Clock.Now()
	if prev == ExecBusy {
		e.State = ExecDraining
		return // ExecutorDrained fires when the running task completes
	}
	e.State = ExecDraining
	c.cfg.Backend.ExecutorDrained(e)
}

// RunJob executes one action: it builds the stage graph for target,
// schedules tasks across the backend's executors, and drives the clock
// until the job completes. Sequential RunJob calls on one Cluster share
// shuffle outputs and executor caches (iterative workloads).
func (c *Cluster) RunJob(target *rdd.RDD, name string) (*Job, error) {
	if !c.started {
		c.Start()
	}
	if c.job != nil && !c.job.done {
		return nil, errors.New("engine: a job is already running")
	}
	c.jobSeq++
	builder := newStageBuilder(
		func() int { s := c.stageSeq; c.stageSeq++; return s },
		c.shuffleIDFor,
	)
	builder.build(target)
	job := &Job{
		ID:                c.jobSeq,
		Name:              name,
		Stages:            builder.all,
		mapStageByShuffle: builder.byShuffle,
		results:           make([][]rdd.Row, target.Parts),
	}
	c.job = job
	c.Emit(eventlog.Event{Type: eventlog.JobStart, Stage: -1, Task: -1, Note: name})
	for sid, st := range job.mapStageByShuffle {
		c.tracker.Register(sid, st.Target.Parts, st.Wide.Parts)
	}
	c.cfg.Backend.JobSubmitted(c.cfg.SLO)
	c.alloc.onJobStart()
	c.sched.submitJob(job)

	if c.cfg.Yield != nil {
		c.cfg.Yield(job.onDone)
	} else {
		deadline := c.cfg.Clock.Now().Add(c.cfg.MaxSimTime)
		for !job.done && c.cfg.Clock.Now().Before(deadline) {
			if !c.cfg.Clock.Step() {
				break
			}
		}
	}
	if !job.done {
		// Stalled. The waiter has already resumed, so no wake fires.
		job.done = true
		job.err = fmt.Errorf("%w: %q after %v (pending tasks=%d, live executors=%d)",
			ErrStalled, name, c.cfg.MaxSimTime, c.sched.pendingCount(), len(c.Executors()))
	}
	c.Emit(eventlog.Event{Type: eventlog.JobEnd, Stage: -1, Task: -1, Note: name})
	c.alloc.onJobEnd()
	return job, job.err
}

// cachePut stores a computed partition in an executor's cache and keeps
// the cluster-wide cache locator current.
func (c *Cluster) cachePut(e *Executor, key cachedPart, rows []any, bytes int64) {
	stored, evicted := e.cache.put(key, rows, bytes)
	for _, ev := range evicted {
		if c.cacheWhere[ev] == e.ID {
			delete(c.cacheWhere, ev)
		}
	}
	if stored {
		c.cacheWhere[key] = e.ID
	}
}

// cacheOwner returns the executor caching a partition ("" if none).
func (c *Cluster) cacheOwner(key cachedPart) string { return c.cacheWhere[key] }

// WorkStats aggregates per-substrate execution accounting.
type WorkStats struct {
	Executors int
	Tasks     int
	Busy      time.Duration
}

// WorkSplit is a job's work by executor kind.
type WorkSplit struct {
	VM, Lambda WorkStats
}

// WorkDistribution reports how the job's work split across VM- and
// Lambda-based executors — the paper's fine-grained work-distribution
// analysis enabled by unique executor IDs.
func (c *Cluster) WorkDistribution() WorkSplit {
	var out WorkSplit
	for _, id := range c.order {
		e := c.execs[id]
		st := &out.VM
		if e.Kind == ExecLambda {
			st = &out.Lambda
		}
		st.Executors++
		st.Tasks += e.TasksRun
		st.Busy += e.BusyTime
	}
	return out
}
