// Package engine is the execution core of the Spark-like framework: the
// driver/session, DAG scheduler (stages at shuffle boundaries), task
// scheduler with cache locality, executors with a calibrated performance
// model, dynamic executor allocation, and lineage-based recovery from lost
// executors and lost shuffle outputs.
//
// The scheduler-backend seam mirrors the classes the paper modifies
// (CoarseGrainedSchedulerBackend / StandAloneSchedulerBackend /
// ExecutorAllocationManager): a Backend decides where executors come from
// (VMs, Lambdas, or both) and may veto task placement (the segue hook),
// while the engine is agnostic to the substrate.
package engine

import (
	"container/list"
	"fmt"
	"time"

	"splitserve/internal/cloud"
	"splitserve/internal/storage"
)

// ExecKind distinguishes the substrate hosting an executor.
type ExecKind int

// Executor substrate kinds.
const (
	ExecVM ExecKind = iota + 1
	ExecLambda
)

func (k ExecKind) String() string {
	switch k {
	case ExecVM:
		return "vm"
	case ExecLambda:
		return "lambda"
	default:
		return fmt.Sprintf("ExecKind(%d)", int(k))
	}
}

// ExecState is the executor lifecycle.
type ExecState int

// Executor states.
const (
	ExecFree ExecState = iota + 1
	ExecBusy
	ExecDraining // no new tasks (segue); finishes its current task
	ExecDead
)

func (s ExecState) String() string {
	switch s {
	case ExecFree:
		return "free"
	case ExecBusy:
		return "busy"
	case ExecDraining:
		return "draining"
	case ExecDead:
		return "dead"
	default:
		return fmt.Sprintf("ExecState(%d)", int(s))
	}
}

// The performance model: how work units and working sets turn into time.
const (
	// unitsPerSec is work units per second for one full core.
	unitsPerSec = 50e6
	// memOverheadFraction of executor memory is unavailable to data
	// (JVM/runtime overhead).
	memOverheadFraction = 0.25
	// gcKnee is the working-set fraction of usable memory beyond which GC
	// overhead starts; gcSlope scales the slowdown per unit of excess
	// pressure; maxGCFactor caps it.
	gcKnee      = 0.5
	gcSlope     = 2.0
	maxGCFactor = 6.0
	// agePenaltyPerMin adds slowdown per minute of executor age while the
	// executor is memory-pressured — the paper's observation that Lambda
	// executors hit GC pain "after only a few minutes of execution".
	agePenaltyPerMin = 0.15
	// cacheFraction of usable memory holds cached partitions.
	cacheFraction = 0.55
	// serUnitsPerByte is the CPU cost of serializing or deserializing one
	// shuffle byte (charged on both sides of a shuffle).
	serUnitsPerByte = 0.2
)

// ExecutorSpec describes a new executor a Backend registers.
type ExecutorSpec struct {
	ID       string
	Kind     ExecKind
	HostID   string
	MemoryMB int
	CPUShare float64
	// IO is the executor's path for its own reads/writes; Serve is the
	// path used when other executors read blocks it wrote (local store).
	IO    storage.Client
	Serve storage.Client
	// VM / Lambda link the executor to its substrate for billing and
	// lifetime queries. Exactly one is non-nil.
	VM     *cloud.VM
	Lambda *cloud.Lambda
	// Credits, when non-nil, makes this a burstable-host executor: CPU
	// runs at full speed while the host's credit balance lasts and at the
	// baseline fraction after (shared across the host's executors).
	Credits *cloud.CreditGauge
}

// Executor is one running executor (one core, as in the paper).
type Executor struct {
	ExecutorSpec
	State        ExecState
	RegisteredAt time.Time
	RemovedAt    time.Time
	IdleSince    time.Time
	// DrainingAt is when the segue started draining this executor (zero if
	// it never drained); RemovedAt-DrainingAt is the drain duration.
	DrainingAt time.Time

	current *Task
	cache   *blockCache
	// TasksRun counts completed tasks; BusyTime accumulates the wall time
	// spent running them (the per-executor accounting the paper's unique
	// executor IDs enable: "a fine-grained analysis of the work
	// distribution between the two types of executors").
	TasksRun int
	BusyTime time.Duration
}

// effectiveRate returns work units per second for a task with the given
// working set, applying CPU share, GC pressure and ageing.
func (e *Executor) effectiveRate(workingSet int64, now time.Time) float64 {
	usable := float64(e.MemoryMB) * (1 << 20) * (1 - memOverheadFraction)
	pressure := (float64(workingSet) + float64(e.cache.bytes)) / usable
	gc := 1.0
	if pressure > gcKnee {
		gc += gcSlope * (pressure - gcKnee)
		ageMin := now.Sub(e.RegisteredAt).Minutes()
		gc += agePenaltyPerMin * ageMin
	}
	if gc > maxGCFactor {
		gc = maxGCFactor
	}
	return unitsPerSec * e.CPUShare / gc
}

// ComputeTime converts work units into task compute time on this executor.
// On burstable hosts the credit gauge stretches the time once the balance
// runs out.
func (e *Executor) ComputeTime(workUnits float64, workingSet int64, now time.Time) time.Duration {
	rate := e.effectiveRate(workingSet, now)
	if rate <= 0 {
		rate = 1
	}
	fullSpeedSeconds := workUnits / rate
	if e.Credits != nil {
		fullSpeedSeconds = e.Credits.RunFor(now, fullSpeedSeconds)
	}
	return time.Duration(fullSpeedSeconds * float64(time.Second))
}

// cachedPart identifies one cached partition.
type cachedPart struct {
	rddID int
	part  int
}

type cacheEntry struct {
	key   cachedPart
	rows  []any
	bytes int64
}

// blockCache is a per-executor LRU store of cached partitions (the
// BlockManager memory store). Losing the executor loses the cache.
type blockCache struct {
	capacity int64
	bytes    int64
	order    *list.List // front = most recent
	entries  map[cachedPart]*list.Element
}

func newBlockCache(capacity int64) *blockCache {
	return &blockCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[cachedPart]*list.Element),
	}
}

// get returns the cached rows, marking the entry recently used.
func (c *blockCache) get(key cachedPart) ([]any, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).rows, true
}

// has reports presence without touching recency.
func (c *blockCache) has(key cachedPart) bool {
	_, ok := c.entries[key]
	return ok
}

// put inserts rows, evicting LRU entries as needed, and returns whether
// the partition was stored plus the keys evicted to make room. Oversized
// partitions are not cached (Spark drops blocks that do not fit).
func (c *blockCache) put(key cachedPart, rows []any, bytes int64) (stored bool, evicted []cachedPart) {
	if bytes > c.capacity {
		return false, nil
	}
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		c.bytes += bytes - ent.bytes
		ent.rows, ent.bytes = rows, bytes
		return true, nil
	}
	for c.bytes+bytes > c.capacity {
		back := c.order.Back()
		if back == nil {
			return false, evicted
		}
		ent := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.entries, ent.key)
		c.bytes -= ent.bytes
		evicted = append(evicted, ent.key)
	}
	el := c.order.PushFront(&cacheEntry{key: key, rows: rows, bytes: bytes})
	c.entries[key] = el
	c.bytes += bytes
	return true, evicted
}

// len returns the number of cached partitions.
func (c *blockCache) len() int { return len(c.entries) }
