// Package perfstat is the simulator's third observability layer: the
// simulator observing *itself*. Where internal/telemetry and
// internal/eventlog record what happened inside the simulated cluster on
// the virtual clock, perfstat records what the host paid to compute it —
// wall-clock time per simclock step, allocations per event, clock-loop
// occupancy, event-heap pressure, and scheduler run-queue depth.
//
// The two time bases are strictly separated: a Collector only *reads*
// simulation state (counters, the event stream) and never schedules,
// emits, or draws randomness, so enabling it leaves same-seed reports and
// event logs byte-identical (enforced by TestPerfstatDeterminismIsolation
// in internal/cluster). Its own output is wall-clock data and therefore
// explicitly non-deterministic; the snapshot schema carries a
// "deterministic": false marker so downstream tooling can never confuse
// the two.
//
// A nil *Collector is a valid no-op — every method checks the receiver —
// so call sites wire profiling unconditionally and pay nothing when it is
// off.
package perfstat

import (
	"runtime/metrics"
	"time"

	"splitserve/internal/eventlog"
	"splitserve/internal/simclock"
)

// Collector accumulates host-side profiling over one or more simulation
// runs. Construct with New immediately before the work being measured;
// call Snapshot once at the end. Attach methods may be called repeatedly
// (e.g. once per sweep sample) — AttachClock folds the previous clock's
// counters into the running totals first.
//
// Collector is not safe for concurrent use by multiple simulations; the
// repo's simulations are single-threaded by design (the cluster driver
// resumes one workload coroutine at a time and waits for it to park),
// which is exactly the property that makes lock-free collection here
// correct.
type Collector struct {
	startWall   time.Time
	startAllocs uint64
	startBytes  uint64

	clock       *simclock.Clock
	clockFired0 uint64

	eventsFired   uint64 // from detached clocks
	heapHighWater int
	cancelled     uint64
	ghosts        int
	compactions   uint64

	stepHist    durHist
	handoffHist durHist
	stepBusy    time.Duration
	handoffBusy time.Duration

	yields uint64

	queueSamples uint64
	queueSum     float64
	queueMax     int

	eventTypes map[eventlog.Type]uint64
	buses      map[*eventlog.Bus]bool
}

// runtime/metrics sample keys read at start and snapshot; the deltas give
// allocs/event and bytes/event.
var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readAllocs() (objects, bytes uint64) {
	s := make([]metrics.Sample, len(memSamples))
	copy(s, memSamples)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// New returns an enabled Collector whose wall clock and allocation
// baselines start now.
func New() *Collector {
	c := &Collector{
		startWall:  time.Now(),
		eventTypes: make(map[eventlog.Type]uint64),
	}
	c.startAllocs, c.startBytes = readAllocs()
	return c
}

// Enabled reports whether profiling is on (the collector is non-nil).
func (c *Collector) Enabled() bool { return c != nil }

// AttachClock starts observing cl: per-step wall timing and, at snapshot
// time, its fired/heap/cancel counters. Attaching a new clock folds the
// previous one's counters into the running totals, so one collector can
// span a sweep of runs.
func (c *Collector) AttachClock(cl *simclock.Clock) {
	if c == nil {
		return
	}
	c.detachClock()
	c.clock = cl
	c.clockFired0 = cl.Fired()
	cl.SetStepObserver(c)
}

// detachClock folds the current clock's counters into the totals.
func (c *Collector) detachClock() {
	cl := c.clock
	if cl == nil {
		return
	}
	c.eventsFired += cl.Fired() - c.clockFired0
	if hw := cl.HeapHighWater(); hw > c.heapHighWater {
		c.heapHighWater = hw
	}
	c.cancelled += cl.Cancelled()
	c.ghosts = cl.Ghosts()
	c.compactions += cl.Compactions()
	cl.SetStepObserver(nil)
	c.clock = nil
}

// ObserveStep implements simclock.StepObserver.
func (c *Collector) ObserveStep(wall time.Duration) {
	if c == nil {
		return
	}
	c.stepHist.observe(wall)
	c.stepBusy += wall
}

// ObserveHandoff records one handoff: one resume of a workload coroutine,
// timed by the driver from the resume until the workload parks (or
// finishes) again — the engine yield protocol's per-wakeup cost.
func (c *Collector) ObserveHandoff(wall time.Duration) {
	if c == nil {
		return
	}
	c.handoffHist.observe(wall)
	c.handoffBusy += wall
}

// CountYield counts one workload park on the engine yield path.
func (c *Collector) CountYield() {
	if c == nil {
		return
	}
	c.yields++
}

// SampleQueueDepth records one observation of the cluster scheduler's
// run-queue depth (jobs queued or parked awaiting resume).
func (c *Collector) SampleQueueDepth(depth int) {
	if c == nil {
		return
	}
	c.queueSamples++
	c.queueSum += float64(depth)
	if depth > c.queueMax {
		c.queueMax = depth
	}
}

// ObserveBus subscribes the collector to b, counting every event by type.
// Counting happens on the emission path but never mutates it. Subscribing
// the same bus twice is a no-op, so sweep runners sharing one bus can
// attach per run without double counting.
func (c *Collector) ObserveBus(b *eventlog.Bus) {
	if c == nil || b == nil || c.buses[b] {
		return
	}
	if c.buses == nil {
		c.buses = make(map[*eventlog.Bus]bool)
	}
	c.buses[b] = true
	b.Subscribe(func(e eventlog.Event) { c.eventTypes[e.Type]++ })
}

// Snapshot finalises collection and returns the schema-stable result.
// The collector keeps accumulating if used further, but the usual shape
// is one Snapshot at process exit.
func (c *Collector) Snapshot() *Snapshot {
	if c == nil {
		return nil
	}
	c.detachClock()
	wall := time.Since(c.startWall)
	allocs, bytes := readAllocs()
	dAllocs := float64(allocs - c.startAllocs)
	dBytes := float64(bytes - c.startBytes)

	s := &Snapshot{
		Schema:        SchemaV1,
		Deterministic: false,
		WallSeconds:   wall.Seconds(),
		EventsFired:   c.eventsFired,
		Clock: ClockStats{
			HeapHighWater: c.heapHighWater,
			Cancelled:     c.cancelled,
			GhostsLive:    c.ghosts,
			Compactions:   c.compactions,
		},
		StepWall:    c.stepHist.stats(c.stepBusy),
		HandoffWall: c.handoffHist.stats(c.handoffBusy),
		Yields:      c.yields,
		EventTypes:  groupTypes(c.eventTypes),
	}
	if wall > 0 {
		s.EventsPerSec = float64(c.eventsFired) / wall.Seconds()
		s.Occupancy = Occupancy{
			StepFraction:    c.stepBusy.Seconds() / wall.Seconds(),
			HandoffFraction: c.handoffBusy.Seconds() / wall.Seconds(),
		}
		s.Occupancy.OtherFraction = 1 - s.Occupancy.StepFraction - s.Occupancy.HandoffFraction
		if s.Occupancy.OtherFraction < 0 {
			s.Occupancy.OtherFraction = 0
		}
	}
	if c.eventsFired > 0 {
		s.AllocsPerEvent = dAllocs / float64(c.eventsFired)
		s.BytesPerEvent = dBytes / float64(c.eventsFired)
	}
	if c.queueSamples > 0 {
		s.RunQueue = DepthStats{
			Samples: c.queueSamples,
			Max:     c.queueMax,
			Mean:    c.queueSum / float64(c.queueSamples),
		}
	}
	return s
}

// groupTypes buckets raw event-type counts by emitting subsystem, the
// same grouping OBSERVABILITY.md documents for the event vocabulary.
func groupTypes(raw map[eventlog.Type]uint64) map[string]map[string]uint64 {
	if len(raw) == 0 {
		return nil
	}
	out := make(map[string]map[string]uint64)
	for t, n := range raw {
		sub := subsystemOf(t)
		m := out[sub]
		if m == nil {
			m = make(map[string]uint64)
			out[sub] = m
		}
		m[string(t)] = n
	}
	return out
}

func subsystemOf(t eventlog.Type) string {
	switch t {
	case eventlog.JobStart, eventlog.JobEnd, eventlog.StageStart, eventlog.StageEnd,
		eventlog.TaskStart, eventlog.TaskEnd, eventlog.TaskFailed, eventlog.TaskSpeculated,
		eventlog.StageResubmitted, eventlog.ExecutorAdd, eventlog.ExecutorDrain,
		eventlog.ExecutorRemove, eventlog.Segue:
		return "engine"
	case eventlog.ShuffleWrite, eventlog.ShuffleRead:
		return "shuffle"
	case eventlog.HDFSWrite, eventlog.HDFSRead:
		return "hdfs"
	case eventlog.VMRequest, eventlog.VMReady, eventlog.LambdaInvoke, eventlog.LambdaReady,
		eventlog.LambdaRelease, eventlog.CoreLease, eventlog.CoreRelease, eventlog.VMReleaseIdle:
		return "cloud"
	case eventlog.ClusterArrive, eventlog.ClusterAdmit, eventlog.ClusterFinish,
		eventlog.ClusterFail, eventlog.SLOViolate, eventlog.SegueCoreGrant,
		eventlog.AutoscaleOrder, eventlog.ClusterShed, eventlog.ClusterDelay:
		return "cluster"
	case eventlog.CostPick:
		return "costmgr"
	case eventlog.LambdaWarmHit, eventlog.TmpCacheHit, eventlog.TmpCacheEvict,
		eventlog.WarmpoolResize:
		return "warmpool"
	case eventlog.ShardAssign, eventlog.ShardSteal, eventlog.TenantReport:
		return "shard"
	default:
		return "other"
	}
}
