// Package telemetry is the simulator's structured observability layer: a
// metrics registry (counters, gauges, fixed-bucket histograms keyed by
// name and labels), and a span tracer that rides the virtual clock so
// every trace is deterministic — two runs with the same seed produce
// byte-identical exports.
//
// Hot-path discipline: instrument handles are resolved once at component
// setup (a mutex-guarded map lookup) and afterwards every Add/Set/Observe
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
	"sort"
	"strings"
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
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// labelKey serialises sorted labels for registry keying.
func labelKey(sorted []Label) string {
	if len(sorted) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// Hub bundles one run's registry and tracer. A nil *Hub is a valid no-op
// sink: every method returns nil handles whose operations do nothing.
type Hub struct {
	reg *Registry
	tr  *Tracer
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
