// Package telemetry is the simulator's structured observability layer: a
// metrics registry (counters, gauges, fixed-bucket histograms keyed by
// name and labels), and a span tracer that rides the virtual clock so
// every trace is deterministic — two runs with the same seed produce
// byte-identical exports.
//
// Hot-path discipline: instrument handles are resolved once at component
// setup (a mutex-guarded map lookup that allocates nothing when the
// instrument already exists), or once per hub for components built per
// job (Memo), and afterwards every Add/Set/Observe
// is a handful of atomic operations with zero allocations, so recording a
// counter inside the task inner loop costs nanoseconds. All instrument
// methods are nil-receiver safe, which lets components run untelemetered
// (tests, library users) without guarding every call site.
//
// Two exporters read the same state: a Prometheus-style text dump and a
// JSON "run report" (see export.go), both surfaced through the -report
// flag on splitserve-sim and splitserve-bench.
package telemetry

import (
	"sync"
	"time"
)

// Clock is the time source for spans — satisfied by *simclock.Clock, so
// traces advance in virtual time and stay deterministic.
type Clock interface {
	Now() time.Time
}

// Label is one key=value metric or span dimension.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// sortLabels returns a sorted copy (instruments and spans keep their
// labels sorted so exports are stable regardless of call-site order).
func sortLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := append([]Label(nil), labels...)
	sortByKey(out)
	return out
}

// sortByKey sorts labels by key in place with a stable insertion sort:
// label lists are short, and sorting without a closure keeps appendKey's
// stack copy on the stack.
func sortByKey(labels []Label) {
	for i := 1; i < len(labels); i++ {
		for j := i; j > 0 && labels[j].Key < labels[j-1].Key; j-- {
			labels[j], labels[j-1] = labels[j-1], labels[j]
		}
	}
}

// keyBufLen sizes the stack buffer registry keys are built in; a longer
// key spills to the heap.
const keyBufLen = 128

// appendKey appends the registry key of (name, labels) to dst:
// "name|k=v,k=v" with the labels in sortLabels order. The labels are
// sorted in a stack copy (it moves to the heap past eight labels), so a
// caller that builds the key in a stack buffer and looks it up as
// m[string(key)] allocates nothing.
func appendKey(dst []byte, name string, labels []Label) []byte {
	var stack [8]Label
	sorted := append(stack[:0], labels...)
	sortByKey(sorted)
	dst = append(dst, name...)
	dst = append(dst, '|')
	for i, l := range sorted {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, l.Key...)
		dst = append(dst, '=')
		dst = append(dst, l.Value...)
	}
	return dst
}

// Hub bundles one run's registry and tracer. A nil *Hub is a valid no-op
// sink: every method returns nil handles whose operations do nothing.
type Hub struct {
	reg *Registry
	tr  *Tracer

	memoMu sync.Mutex
	memo   map[*MemoKey]any
}

// A MemoKey names one kind of value memoised on a Hub (see Memo). Declare
// each as a package-level variable and pass its address; the field gives
// it a size, so distinct keys have distinct addresses.
type MemoKey struct{ _ byte }

// Memo returns the value build made for key on h, calling build with h
// the first time key is asked for. Components that resolve a fixed set of
// instruments use it so that every instance on one hub shares one set,
// resolved once per hub rather than once per instance. h must not be nil.
func Memo[T any](h *Hub, key *MemoKey, build func(*Hub) T) T {
	h.memoMu.Lock()
	defer h.memoMu.Unlock()
	if v, ok := h.memo[key]; ok {
		return v.(T)
	}
	v := build(h)
	if h.memo == nil {
		h.memo = make(map[*MemoKey]any)
	}
	h.memo[key] = v
	return v
}

// New returns a Hub whose tracer reads time from clock.
func New(clock Clock) *Hub {
	return &Hub{reg: NewRegistry(), tr: NewTracer(clock)}
}

// NewUntraced returns a Hub that keeps metrics but no spans or marks: its
// Tracer is nil, on which every span call is a no-op.
func NewUntraced() *Hub { return &Hub{reg: NewRegistry()} }

// Registry returns the metrics registry (nil on a nil hub).
func (h *Hub) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.reg
}

// Tracer returns the span tracer (nil on a nil hub).
func (h *Hub) Tracer() *Tracer {
	if h == nil {
		return nil
	}
	return h.tr
}

// Counter resolves (creating on first use) a counter handle.
func (h *Hub) Counter(name string, labels ...Label) *Counter {
	if h == nil {
		return nil
	}
	return h.reg.Counter(name, labels...)
}

// Gauge resolves (creating on first use) a gauge handle.
func (h *Hub) Gauge(name string, labels ...Label) *Gauge {
	if h == nil {
		return nil
	}
	return h.reg.Gauge(name, labels...)
}

// Histogram resolves (creating on first use) a histogram handle with the
// given bucket upper bounds (nil = DefBuckets).
func (h *Hub) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if h == nil {
		return nil
	}
	return h.reg.Histogram(name, bounds, labels...)
}
