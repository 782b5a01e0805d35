// Package eventlog is the simulator's structured event stream — the
// discrete-event counterpart of Spark's event log (SparkListenerEvent +
// EventLoggingListener). Engine, cluster, shuffle, HDFS and cloud all emit
// flat, append-only events on the virtual clock; the stream serialises to
// JSONL (one event per line, fixed field order) so two runs with the same
// seed produce byte-identical logs, and a saved log can be replayed by
// cmd/splitserve-history long after the run that produced it.
//
// Two exporters read the stream back: a Chrome trace-event JSON renderer
// (trace.go — loadable in chrome://tracing or Perfetto) and a per-stage
// analytics pass (analyze.go — task-duration quantiles, straggler
// detection, executor utilization, Lambda-vs-VM split).
package eventlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Type names one event kind. The vocabulary is closed: Bus.Emit rejects
// unknown types so typo'd names cannot silently fork the schema as call
// sites multiply.
type Type string

// Event types, grouped by emitting subsystem.
const (
	// Engine (spark/engine and its backends).
	JobStart         Type = "job_start"
	JobEnd           Type = "job_end"
	StageStart       Type = "stage_start"
	StageEnd         Type = "stage_end"
	TaskStart        Type = "task_start"
	TaskEnd          Type = "task_end"
	TaskFailed       Type = "task_failed"
	TaskSpeculated   Type = "task_speculated"
	StageResubmitted Type = "stage_resubmitted"
	ExecutorAdd      Type = "executor_add"
	ExecutorDrain    Type = "executor_drain"
	ExecutorRemove   Type = "executor_remove"
	Segue            Type = "segue"

	// Shuffle (map-output tracker).
	ShuffleWrite Type = "shuffle_write"
	ShuffleRead  Type = "shuffle_read"

	// HDFS.
	HDFSWrite Type = "hdfs_write"
	HDFSRead  Type = "hdfs_read"

	// Cloud control plane.
	VMRequest     Type = "vm_request"
	VMReady       Type = "vm_ready"
	LambdaInvoke  Type = "lambda_invoke"
	LambdaReady   Type = "lambda_ready"
	LambdaRelease Type = "lambda_release"
	CoreLease     Type = "core_lease"
	CoreRelease   Type = "core_release"

	// Cluster scheduler (multi-job layer).
	ClusterArrive  Type = "cluster_job_arrive"
	ClusterAdmit   Type = "cluster_job_admit"
	ClusterFinish  Type = "cluster_job_finish"
	ClusterFail    Type = "cluster_job_fail"
	SLOViolate     Type = "slo_violate"
	SegueCoreGrant Type = "segue_core_grant"
	AutoscaleOrder Type = "autoscale_order"

	// Elasticity (scale-down + deadline-aware admission).
	VMReleaseIdle Type = "vm_release_idle"
	ClusterShed   Type = "cluster_job_shed"
	ClusterDelay  Type = "cluster_job_delay"

	// Cost manager: the profile-driven allocation decision for an
	// arriving job (Cores = chosen R; Note = policy, predicted run time
	// and cost, and whether a profile or the fallback informed it).
	CostPick Type = "cost_pick"

	// Warm pool (provisioned-concurrency substrate). LambdaWarmHit marks
	// an invocation served by a pre-initialized environment (Exec = the
	// environment ID, Note = the invocation it hosts); WarmpoolResize
	// records a target-tracking resize (Cores = new target, Note =
	// old->new); TmpCacheHit/TmpCacheEvict track the /tmp shuffle cache
	// tier (Exec = environment, Bytes = cached bytes served or evicted).
	LambdaWarmHit  Type = "lambda_warm_hit"
	TmpCacheHit    Type = "tmp_cache_hit"
	TmpCacheEvict  Type = "tmp_cache_evict"
	WarmpoolResize Type = "warmpool_resize"

	// Sharded control plane (internal/shard). ShardAssign records a job's
	// deterministic tenant→shard placement at submission time (App = the
	// job's appID on its home shard, Exec = tenant, Cores = demand,
	// Note = "shard=N"). ShardSteal records a queued job migrating from a
	// saturated shard to a neighbor with idle cores (App = the job's new
	// appID on the destination shard, Exec = tenant, Cores = demand,
	// Note = "sSRC->sDST"). TenantReport is the end-of-run per-tenant
	// rollup (Exec = tenant, Cores = jobs submitted, Note = the
	// completed/violations/attainment summary).
	ShardAssign  Type = "shard_assign"
	ShardSteal   Type = "shard_steal"
	TenantReport Type = "tenant_report"
)

// allTypes is the single authoritative enumeration of the closed
// vocabulary. A new constant must be added here (and nowhere else) to
// become emittable; Valid and AllTypes both derive from this list, and
// the trace-exporter vocabulary test walks it so an unmapped newcomer
// fails loudly instead of silently dropping from rendered traces.
var allTypes = []Type{
	JobStart, JobEnd, StageStart, StageEnd, TaskStart, TaskEnd,
	TaskFailed, TaskSpeculated, StageResubmitted,
	ExecutorAdd, ExecutorDrain, ExecutorRemove, Segue,
	ShuffleWrite, ShuffleRead, HDFSWrite, HDFSRead,
	VMRequest, VMReady, LambdaInvoke, LambdaReady, LambdaRelease,
	CoreLease, CoreRelease,
	ClusterArrive, ClusterAdmit, ClusterFinish, ClusterFail,
	SLOViolate, SegueCoreGrant, AutoscaleOrder,
	VMReleaseIdle, ClusterShed, ClusterDelay, CostPick,
	LambdaWarmHit, TmpCacheHit, TmpCacheEvict, WarmpoolResize,
	ShardAssign, ShardSteal, TenantReport,
}

var validTypes = func() map[Type]bool {
	m := make(map[Type]bool, len(allTypes))
	for _, t := range allTypes {
		m[t] = true
	}
	return m
}()

// Valid reports whether t is a known event type.
func (t Type) Valid() bool { return validTypes[t] }

// AllTypes returns the full closed vocabulary in declaration order. The
// slice is a copy; callers may reorder it freely.
func AllTypes() []Type {
	out := make([]Type, len(allTypes))
	copy(out, allTypes)
	return out
}

// Event is one log entry. TS is the virtual-time offset from the bus
// origin in microseconds; Stage and Task use -1 for "not applicable" so
// stage 0 / task 0 stay representable. All other fields are optional and
// omitted when empty, keeping lines compact. Field order is fixed by the
// struct, so encoding/json yields a stable byte layout.
type Event struct {
	TS    int64  `json:"ts_us"`
	Type  Type   `json:"type"`
	App   string `json:"app,omitempty"`
	Exec  string `json:"exec,omitempty"`
	Kind  string `json:"kind,omitempty"` // "vm" | "lambda" (or "warm"/"cold" for invokes)
	Stage int    `json:"stage"`
	Task  int    `json:"task"`
	Cores int    `json:"cores,omitempty"`
	Bytes int64  `json:"bytes,omitempty"`
	Note  string `json:"note,omitempty"`
}

// Ev returns an Event of type t with Stage and Task pre-set to -1, the
// "not applicable" sentinel. Call sites fill the fields they know.
func Ev(t Type) Event { return Event{Type: t, Stage: -1, Task: -1} }

// Bus is the listener-bus: an append-only collector plus fan-out to
// subscribers. A nil *Bus is a valid no-op sink — every method does
// nothing — so components run unlogged without guarding call sites.
// Emission order is insertion order; a deterministic simulation therefore
// yields an identical stream every run.
type Bus struct {
	mu     sync.Mutex
	origin time.Time
	events []Event
	subs   []*func(Event)
}

// NewBus returns a Bus whose time zero is origin; every emitted event's TS
// is measured from it.
func NewBus(origin time.Time) *Bus { return &Bus{origin: origin} }

// Origin returns the bus's time zero.
func (b *Bus) Origin() time.Time {
	if b == nil {
		return time.Time{}
	}
	return b.origin
}

// Subscribe registers fn to observe every subsequent event, in emission
// order, synchronously under the bus lock (keep fn cheap). The returned
// detach stops fn observing; call it outside fn.
func (b *Bus) Subscribe(fn func(Event)) (detach func()) {
	if b == nil {
		return func() {}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	sub := &fn
	b.subs = append(b.subs, sub)
	return func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		for i, s := range b.subs {
			if s == sub {
				b.subs = append(b.subs[:i], b.subs[i+1:]...)
				return
			}
		}
	}
}

// Emit stamps e with the offset of at from the origin, validates its type,
// appends it and fans it out. Unknown types panic: the vocabulary is
// closed and a typo is a programming error, not a runtime condition.
func (b *Bus) Emit(at time.Time, e Event) {
	if b == nil {
		return
	}
	if !e.Type.Valid() {
		panic(fmt.Sprintf("eventlog: unknown event type %q", string(e.Type)))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e.TS = at.Sub(b.origin).Microseconds()
	b.events = append(b.events, e)
	for _, fn := range b.subs {
		(*fn)(e)
	}
}

// Len returns the number of events recorded so far.
func (b *Bus) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}

// Events returns a snapshot of the stream in emission order.
func (b *Bus) Events() []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Event(nil), b.events...)
}

// WriteJSONL streams the log as one compact JSON object per line. Field
// order is the Event struct order and values carry no floats, so the same
// stream always serialises to the same bytes.
func (b *Bus) WriteJSONL(w io.Writer) error {
	return WriteJSONL(w, b.Events())
}

// JSONL renders the whole stream as a byte slice (tests, -eventlog).
func (b *Bus) JSONL() ([]byte, error) {
	var buf bytes.Buffer
	if err := b.WriteJSONL(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteJSONL serialises events one per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, e := range events {
		line, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a saved event log back into events, preserving order.
// Blank lines are skipped; an unknown event type is an error (the replay
// tooling would otherwise misrender newer logs silently).
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("eventlog: line %d: %w", line, err)
		}
		if !e.Type.Valid() {
			return nil, fmt.Errorf("eventlog: line %d: unknown event type %q", line, string(e.Type))
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
