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
	"math"
	"slices"
	"strconv"
	"sync"
	"time"
	"unsafe"

	"splitserve/internal/jsonenc"
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

// typeIndex gives each known type its index in allTypes, which is how a
// Bus stores it. Its keys are exactly the valid types.
var typeIndex = func() map[Type]uint8 {
	if len(allTypes) > wideBit {
		panic("eventlog: the vocabulary outgrew a record's type index")
	}
	m := make(map[Type]uint8, len(allTypes))
	for i, t := range allTypes {
		m[t] = uint8(i)
	}
	return m
}()

// Valid reports whether t is a known event type.
func (t Type) Valid() bool {
	_, ok := typeIndex[t]
	return ok
}

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
//
// A Bus stores Stage, Task and Cores in at most 32 bits, so Bus.Emit
// panics when one of them falls outside the int32 range, as it does on
// an unknown type: either is a programming error. Bytes and TS keep all
// 64 bits.
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

// record is an Event as a Bus stores it: 32 bytes with no pointers, so
// the garbage collector never scans a chunk. app, exec and note index
// the bus's string table, kind is a code into its kind table, and typ is
// an index into allTypes. An event with Bytes set, with Cores outside the
// int16 range, or with a Kind the full kind table cannot code is wide:
// its record sets wideBit in typ, leaves cores and kind zero, and the
// bus keeps those three fields in a wide entry instead.
type record struct {
	ts              int64
	app, exec, note uint32
	stage, task     int32
	cores           int16
	kind, typ       uint8
}

// wideBit marks the typ of a wide record. allTypes stays below it.
const wideBit = 0x80

// wide holds what a wide event's record cannot: Bytes, Cores, and Kind
// as a string-table index. A bus keeps one per wide record, in emission
// order, so a reader pairs them by counting and no record stores an
// index.
type wide struct {
	bytes int64
	cores int32
	kind  uint32
}

// chunkSize is how many values one chunk of a column holds.
const chunkSize = 4096

// column is an append-only sequence kept in chunks: a long column grows
// by whole chunks that are never copied, one allocation per chunkSize
// values, instead of regrowing and copying all of it. Every chunk but
// the last is full.
type column[T any] struct {
	chunks [][]T
	n      int
}

func (c *column[T]) push(v T) {
	if c.n%chunkSize == 0 {
		// The first chunk grows by append, so a short column costs what
		// a plain slice would.
		var s []T
		if c.n > 0 {
			s = make([]T, 0, chunkSize)
		}
		c.chunks = append(c.chunks, s)
	}
	last := len(c.chunks) - 1
	c.chunks[last] = append(c.chunks[last], v)
	c.n++
}

// reader returns a reader of the column as it stands. The full chunks
// are never written again, and later values land past the length the
// reader keeps of the last chunk, so the reader needs no lock.
func (c *column[T]) reader() colReader[T] {
	if c.n == 0 {
		return colReader[T]{}
	}
	k := len(c.chunks) - 1
	r := colReader[T]{full: c.chunks[:k:k], last: c.chunks[k]}
	r.advance()
	return r
}

// colReader reads a column as it stood when the reader was made. cur is
// empty only once every value has been read.
type colReader[T any] struct {
	cur  []T   // the unread values of the chunk being read
	full [][]T // the full chunks after cur
	last []T   // the last chunk, as long as it was
}

// advance moves cur to the next chunk that holds values, if any.
func (r *colReader[T]) advance() {
	for len(r.cur) == 0 {
		switch {
		case len(r.full) > 0:
			r.cur, r.full = r.full[0], r.full[1:]
		case r.last != nil:
			r.cur, r.last = r.last, nil
		default:
			return
		}
	}
}

// next returns the next value; one must be left.
func (r *colReader[T]) next() *T {
	v := &r.cur[0]
	if r.cur = r.cur[1:]; len(r.cur) == 0 {
		r.advance()
	}
	return v
}

// decoder turns the records of one bus back into events. It reads the
// bus's wide entries in step with the records, so every reader of a log
// owns one and hands it each record in emission order.
type decoder struct {
	strs, kinds []string
	wides       colReader[wide]
}

// decode writes into e the Event r was stored from. It sets e field by
// field, so filling a slice of events never builds a temporary Event.
func (d *decoder) decode(r *record, e *Event) {
	e.TS, e.Type = r.ts, allTypes[r.typ&^wideBit]
	e.App, e.Exec, e.Note = d.strs[r.app], d.strs[r.exec], d.strs[r.note]
	e.Stage, e.Task = int(r.stage), int(r.task)
	if r.typ&wideBit == 0 {
		e.Kind, e.Cores, e.Bytes = d.kinds[r.kind], int(r.cores), 0
		return
	}
	w := d.wides.next()
	e.Kind, e.Cores, e.Bytes = d.strs[w.kind], int(w.cores), w.bytes
}

// internBits sizes a bus's intern cache at 1<<internBits slots.
const internBits = 10

// Bus is the listener-bus: an append-only collector plus fan-out to
// subscribers. A nil *Bus is a valid no-op sink — every method does
// nothing — so components run unlogged without guarding call sites.
// Emission order is insertion order; a deterministic simulation therefore
// yields an identical stream every run.
//
// The log is kept as 32-byte records without pointers (see record),
// plus a 16-byte wide entry for each of the rare events a record cannot
// hold, and decodes back to the emitted events on the way out (Events,
// Merge, WriteJSONL). Kinds are few, so each distinct one gets a code in
// a per-bus kind table, matched by content. The other strings live once
// each in a per-bus string table. Emit interns such a string by its
// identity — the address of its bytes and its length — through a small
// direct-mapped cache of table indexes, and never reads or hashes its
// contents. Because Go strings are immutable, two strings with the same
// address and length hold the same bytes. And a hit is checked against
// the table entry itself, which keeps its bytes alive, so no other
// string can have taken that address. A miss, or an equal string at
// another address, only adds a duplicate table entry that decodes to the
// same bytes. (Nothing in this module builds a string over mutable
// memory with unsafe, which would break the first guarantee.)
type Bus struct {
	mu     sync.Mutex
	origin time.Time
	// recs holds the log in emission order, and wides the wide entries
	// of its wide records, in the same order.
	recs  column[record]
	wides column[wide]
	// strs is the string table the records index; strs[0] is "". kinds
	// is the kind table, with kinds[0] == "" and at most 255 more. Both
	// are only appended to, so a prefix taken under mu stays valid.
	strs, kinds []string
	subs        []*func(Event)
	// cache holds, for each slot a string's identity hashes to, the
	// index in strs of the last string interned there.
	cache [1 << internBits]uint32
}

// NewBus returns a Bus whose time zero is origin; every emitted event's TS
// is measured from it.
func NewBus(origin time.Time) *Bus {
	return &Bus{origin: origin, strs: []string{""}, kinds: []string{""}}
}

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
				b.subs = slices.Delete(b.subs, i, i+1)
				return
			}
		}
	}
}

// Emit stamps e with the offset of at from the origin, validates it,
// appends it and fans it out. An unknown type, or a Stage, Task or Cores
// outside the int32 range, panics: the vocabulary is closed and a typo
// or a runaway index is a programming error, not a runtime condition.
func (b *Bus) Emit(at time.Time, e Event) {
	if b == nil {
		return
	}
	typ, ok := typeIndex[e.Type]
	if !ok {
		panic(fmt.Sprintf("eventlog: unknown event type %q", string(e.Type)))
	}
	if int(int32(e.Stage)) != e.Stage || int(int32(e.Task)) != e.Task || int(int32(e.Cores)) != e.Cores {
		panic(fmt.Sprintf("eventlog: %s event out of int32 range (stage %d, task %d, cores %d)",
			e.Type, e.Stage, e.Task, e.Cores))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e.TS = at.Sub(b.origin).Microseconds()
	r := record{
		ts:  e.TS,
		app: b.intern(e.App), exec: b.intern(e.Exec), note: b.intern(e.Note),
		stage: int32(e.Stage), task: int32(e.Task),
		typ: typ,
	}
	kind, ok := uint8(0), false
	if e.Bytes == 0 && int(int16(e.Cores)) == e.Cores {
		kind, ok = b.kindCode(e.Kind)
	}
	if ok {
		r.cores, r.kind = int16(e.Cores), kind
	} else {
		r.typ |= wideBit
		b.wides.push(wide{bytes: e.Bytes, cores: int32(e.Cores), kind: b.intern(e.Kind)})
	}
	b.recs.push(r)
	for _, fn := range b.subs {
		(*fn)(e)
	}
}

// intern returns the index of s in the string table, adding s on a
// cache miss. A slot hits when the entry it names has s's address and
// length; an empty slot names strs[0], whose length matches no non-empty
// string. The caller holds b.mu.
func (b *Bus) intern(s string) uint32 {
	if s == "" {
		return 0
	}
	p := unsafe.StringData(s)
	slot := &b.cache[uint64(uintptr(unsafe.Pointer(p))+uintptr(len(s)))*0x9e3779b97f4a7c15>>(64-internBits)]
	if t := b.strs[*slot]; unsafe.StringData(t) == p && len(t) == len(s) {
		return *slot
	}
	*slot = uint32(len(b.strs))
	b.strs = append(b.strs, s)
	return *slot
}

// kindCode returns the code of kind s in the kind table, adding s when
// it is new and the table has room; ok is false when it has none. Kinds
// are matched by content: an equal kind built at another address must
// not take a second code. The caller holds b.mu.
func (b *Bus) kindCode(s string) (code uint8, ok bool) {
	for i, k := range b.kinds {
		if k == s {
			return uint8(i), true
		}
	}
	if len(b.kinds) > math.MaxUint8 {
		return 0, false
	}
	b.kinds = append(b.kinds, s)
	return uint8(len(b.kinds) - 1), true
}

// newDecoder returns a decoder of the log as it stands. The caller holds
// b.mu; the decoder does not need it.
func (b *Bus) newDecoder() decoder {
	return decoder{strs: b.strs, kinds: b.kinds, wides: b.wides.reader()}
}

// Len returns the number of events recorded so far.
func (b *Bus) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.recs.n
}

// Events returns a copy of the stream in emission order: every event
// emitted before it took the bus lock. It is Merge of the one bus.
func (b *Bus) Events() []Event { return Merge(b) }

// WriteJSONL streams the log as one compact JSON object per line. Field
// order is the Event struct order and values carry no floats, so the same
// stream always serialises to the same bytes. It decodes and encodes one
// record at a time under the bus lock, so the log is never copied.
func (b *Bus) WriteJSONL(w io.Writer) error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	enc := newJSONLEncoder(w)
	dec := b.newDecoder()
	for _, c := range b.recs.chunks {
		for i := range c {
			var e Event
			dec.decode(&c[i], &e)
			if err := enc.encode(&e); err != nil {
				return err
			}
		}
	}
	return enc.flush()
}

// JSONL renders the whole stream as a byte slice (tests, -eventlog).
func (b *Bus) JSONL() ([]byte, error) {
	var buf bytes.Buffer
	if err := b.WriteJSONL(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteJSONL serialises events one per line, each line the bytes
// json.Marshal gives for the event followed by a newline.
func WriteJSONL(w io.Writer, events []Event) error {
	enc := newJSONLEncoder(w)
	for i := range events {
		if err := enc.encode(&events[i]); err != nil {
			return err
		}
	}
	return enc.flush()
}

// jsonlFlushAt is the buffered size at which a jsonlEncoder hands its
// lines to the writer.
const jsonlFlushAt = 64 << 10

// jsonlEncoder writes events as JSON lines without reflection: each line
// is appended to one reused buffer in the Event struct's field order, with
// the same omitempty rules, and the buffer goes to w whenever it passes
// jsonlFlushAt. The output is byte-equal to json.Marshal per event, which
// FuzzWriteJSONL checks.
type jsonlEncoder struct {
	w   io.Writer
	buf []byte
}

func newJSONLEncoder(w io.Writer) *jsonlEncoder {
	return &jsonlEncoder{w: w, buf: make([]byte, 0, jsonlFlushAt+1024)}
}

func (enc *jsonlEncoder) encode(e *Event) error {
	b := append(enc.buf, `{"ts_us":`...)
	b = strconv.AppendInt(b, e.TS, 10)
	b = append(b, `,"type":`...)
	b = jsonenc.AppendString(b, string(e.Type))
	if e.App != "" {
		b = append(b, `,"app":`...)
		b = jsonenc.AppendString(b, e.App)
	}
	if e.Exec != "" {
		b = append(b, `,"exec":`...)
		b = jsonenc.AppendString(b, e.Exec)
	}
	if e.Kind != "" {
		b = append(b, `,"kind":`...)
		b = jsonenc.AppendString(b, e.Kind)
	}
	b = append(b, `,"stage":`...)
	b = strconv.AppendInt(b, int64(e.Stage), 10)
	b = append(b, `,"task":`...)
	b = strconv.AppendInt(b, int64(e.Task), 10)
	if e.Cores != 0 {
		b = append(b, `,"cores":`...)
		b = strconv.AppendInt(b, int64(e.Cores), 10)
	}
	if e.Bytes != 0 {
		b = append(b, `,"bytes":`...)
		b = strconv.AppendInt(b, e.Bytes, 10)
	}
	if e.Note != "" {
		b = append(b, `,"note":`...)
		b = jsonenc.AppendString(b, e.Note)
	}
	enc.buf = append(b, "}\n"...)
	if len(enc.buf) >= jsonlFlushAt {
		return enc.flush()
	}
	return nil
}

// flush hands the buffered lines to the writer.
func (enc *jsonlEncoder) flush() error {
	if len(enc.buf) == 0 {
		return nil
	}
	_, err := enc.w.Write(enc.buf)
	enc.buf = enc.buf[:0]
	return err
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
