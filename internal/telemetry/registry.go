package telemetry

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default histogram bucket upper bounds, in seconds:
// a 1-2.5-5 decade ladder from 1 ms to 250 s, spanning everything from a
// namenode RPC to a VM boot.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 25, 50, 100, 250,
}

// Registry holds one run's instruments. Resolution (Counter/Gauge/
// Histogram) takes a mutex, and resolving an instrument that already
// exists allocates nothing; the returned handles are lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter for (name, labels), creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	var buf [keyBufLen]byte
	key := appendKey(buf[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[string(key)]; ok {
		return c
	}
	c := &Counter{name: name, labels: sortLabels(labels)}
	r.counters[string(key)] = c
	return c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	var buf [keyBufLen]byte
	key := appendKey(buf[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[string(key)]; ok {
		return g
	}
	g := &Gauge{name: name, labels: sortLabels(labels)}
	r.gauges[string(key)] = g
	return g
}

// Histogram returns the histogram for (name, labels), creating it on first
// use with the given bucket upper bounds (nil = DefBuckets). Bounds must be
// strictly increasing; a final +Inf bucket is implicit.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	var buf [keyBufLen]byte
	key := appendKey(buf[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[string(key)]; ok {
		return h
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %s bounds not increasing at %d", name, i))
		}
	}
	h := &Histogram{
		name:   name,
		labels: sortLabels(labels),
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.hists[string(key)] = h
	return h
}

// Counter is a monotonically increasing float64. Safe for concurrent use;
// Add and Inc allocate nothing.
type Counter struct {
	name   string
	labels []Label
	bits   atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v. Negative deltas are ignored (counters
// are monotonic).
func (c *Counter) Add(v float64) {
	if c == nil || v <= 0 {
		return
	}
	for {
		old := c.bits.Load()
		newBits := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, newBits) {
			return
		}
	}
}

// Value returns the current total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is an instantaneous float64 value. Safe for concurrent use.
type Gauge struct {
	name   string
	labels []Label
	bits   atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		newBits := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, newBits) {
			return
		}
	}
}

// Inc adds 1; Dec subtracts 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Observe is a binary
// search plus two atomic increments — no allocation, safe for concurrent
// use.
type Histogram struct {
	name    string
	labels  []Label
	bounds  []float64 // upper bounds; counts has one extra +Inf slot
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound >= v (the +Inf slot otherwise).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		newBits := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, newBits) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Bounds returns the bucket upper bounds (excluding the implicit +Inf).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// BucketCounts returns per-bucket counts; the final entry is the +Inf
// bucket.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}
