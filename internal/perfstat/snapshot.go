package perfstat

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"time"
)

// SchemaV1 identifies the snapshot JSON layout. Fields are only ever
// added, never renamed or removed, within a schema version.
const SchemaV1 = "splitserve-perfstat/v1"

// Snapshot is the collector's stable-schema JSON output. It is host-side
// wall-clock data: Deterministic is always false, distinguishing it from
// the byte-identical virtual-time reports and event logs.
type Snapshot struct {
	Schema        string `json:"schema"`
	Deterministic bool   `json:"deterministic"`
	// Commit and Label tie the snapshot to a point in the perf
	// trajectory: the git commit that produced it (-commit flag, or the
	// SPLITSERVE_COMMIT environment variable) and the command's config
	// label. Comparisons ignore both — they are provenance, not metrics.
	Commit      string  `json:"commit,omitempty"`
	Label       string  `json:"label,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`

	// EventsFired counts simclock events fired across all attached
	// clocks; EventsPerSec divides by wall time — the simulator's raw
	// event-loop throughput.
	EventsFired  uint64  `json:"events_fired"`
	EventsPerSec float64 `json:"events_per_sec"`

	// AllocsPerEvent / BytesPerEvent are heap allocation deltas (from
	// runtime/metrics) divided by events fired.
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`

	Clock ClockStats `json:"clock"`

	// StepWall is the wall-clock cost distribution of one simclock Step;
	// HandoffWall of one handoff: one workload coroutine resume, from the
	// driver's resume until the workload parks or finishes.
	StepWall    DurStats `json:"step_wall"`
	HandoffWall DurStats `json:"handoff_wall"`

	// Yields counts workload parks on the engine yield path.
	Yields uint64 `json:"yields"`

	// Occupancy splits wall time into Step execution, workload resumes,
	// and everything else (setup, report building, GC, ...).
	Occupancy Occupancy `json:"occupancy"`

	// RunQueue summarises cluster scheduler run-queue depth samples.
	RunQueue DepthStats `json:"run_queue"`

	// EventTypes counts emitted eventlog events by subsystem and type.
	EventTypes map[string]map[string]uint64 `json:"event_types,omitempty"`
}

// ClockStats are the simclock self-observation counters.
type ClockStats struct {
	// HeapHighWater is the deepest the event queue got (ghosts included);
	// the name predates the timer wheel and is kept for schema stability.
	HeapHighWater int `json:"heap_high_water"`
	// Cancelled counts timers cancelled before firing; GhostsLive is the
	// cancelled entries still occupying heap slots at snapshot time;
	// Compactions counts heap rebuilds that shed ghosts.
	Cancelled   uint64 `json:"cancelled"`
	GhostsLive  int    `json:"ghosts_live"`
	Compactions uint64 `json:"compactions"`
}

// DurStats summarises a wall-duration distribution in microseconds.
type DurStats struct {
	Count        uint64  `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
	P50US        float64 `json:"p50_us"`
	P99US        float64 `json:"p99_us"`
	MaxUS        float64 `json:"max_us"`
}

// Occupancy is the clock-loop wall-time split, each in [0, 1]: Step
// execution, handoffs (workload coroutine resumes, timed by the cluster
// driver), and the rest.
type Occupancy struct {
	StepFraction    float64 `json:"step_fraction"`
	HandoffFraction float64 `json:"handoff_fraction"`
	OtherFraction   float64 `json:"other_fraction"`
}

// DepthStats summarises run-queue depth samples.
type DepthStats struct {
	Samples uint64  `json:"samples"`
	Max     int     `json:"max"`
	Mean    float64 `json:"mean"`
}

// JSON renders the snapshot indented. Map keys are sorted by
// encoding/json, so the layout is stable (the *values* are wall-clock
// measurements and of course are not).
func (s *Snapshot) JSON() ([]byte, error) {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// ParseSnapshot loads a snapshot written by JSON, rejecting other schemas.
func ParseSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("perfstat: %w", err)
	}
	if s.Schema != SchemaV1 {
		return nil, fmt.Errorf("perfstat: unknown schema %q (want %s)", s.Schema, SchemaV1)
	}
	return &s, nil
}

// durHist is a fixed-size log-linear histogram of durations (HDR-style:
// power-of-two octaves split into 8 linear sub-buckets, ≈9%% worst-case
// relative error), sized for nanoseconds up to ~292 years. It exists so
// a 10M-event run records percentiles in constant memory instead of
// retaining every sample.
type durHist struct {
	buckets [64 * subBuckets]uint64
	count   uint64
	max     time.Duration
}

const subBuckets = 8

func bucketIndex(d time.Duration) int {
	v := uint64(d)
	if v < subBuckets {
		return int(v) // exact for the tiniest durations
	}
	octave := bits.Len64(v) - 1 // position of the leading bit
	// The 3 bits below the leading bit pick the linear sub-bucket.
	sub := (v >> (uint(octave) - 3)) & (subBuckets - 1)
	return octave*subBuckets + int(sub)
}

// bucketLow returns the lower bound of bucket i, the inverse of
// bucketIndex's quantisation.
func bucketLow(i int) float64 {
	if i <= subBuckets { // exact region (and its upper fence)
		return float64(i)
	}
	octave := i / subBuckets
	sub := i % subBuckets
	return math.Ldexp(1+float64(sub)/subBuckets, octave)
}

func (h *durHist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketIndex(d)]++
	h.count++
	if d > h.max {
		h.max = d
	}
}

// quantile estimates the q-quantile in nanoseconds by midpoint of the
// containing bucket.
func (h *durHist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var seen float64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		seen += float64(n)
		if seen >= rank {
			lo := bucketLow(i)
			hi := bucketLow(i + 1)
			return (lo + hi) / 2
		}
	}
	return float64(h.max)
}

func (h *durHist) stats(total time.Duration) DurStats {
	return DurStats{
		Count:        h.count,
		TotalSeconds: total.Seconds(),
		P50US:        h.quantile(0.50) / 1e3,
		P99US:        h.quantile(0.99) / 1e3,
		MaxUS:        float64(h.max.Nanoseconds()) / 1e3,
	}
}
