// Package simclock provides the discrete-event-simulation kernel used by the
// SplitServe reproduction: a virtual clock, an ordered event queue, and
// cancellable timers.
//
// The clock is single-threaded and deterministic. Events scheduled for the
// same instant fire in scheduling order (FIFO), which makes every experiment
// bit-for-bit reproducible. Components never sleep; they schedule callbacks.
//
// The event queue is indexed by a hierarchical timer wheel (see wheel.go):
// four 256-slot levels of ~1 ms ticks cascading down toward a near-term
// ready heap, with a small overflow heap for events beyond the ~52-day
// wheel horizon. The original binary-heap index is retained behind
// NewHeapBacked as the reference implementation; the differential property
// and fuzz tests in this package drive both with identical programs and
// require identical firing order and identical observability counters.
package simclock

import (
	"fmt"
	"time"
)

// queueImpl is the pluggable event-queue index behind Clock. Entries are
// totally ordered by (key, seq); cancelled entries ("ghosts", fn == nil)
// stay indexed until they reach the front or a compaction sweeps them, so
// both implementations expose identical counter behavior.
type queueImpl interface {
	push(ev *event)
	// popMin removes and returns the front entry — live or ghost — or
	// nil when the queue is empty.
	popMin() *event
	// peekMin returns the front entry without removing it, or nil.
	peekMin() *event
	len() int
	// compact removes every ghost entry and returns how many were shed.
	compact() int
}

// Clock is a virtual clock driving an event loop. The zero value is not
// usable; construct with New. Clock is not safe for concurrent use: the
// entire simulation runs on one goroutine by design.
type Clock struct {
	start  time.Time // origin of the queue's int64 time coordinate
	now    time.Time
	seq    uint64
	queue  queueImpl
	fired  uint64
	inLoop bool

	// Self-observation counters (read by internal/perfstat). They never
	// influence scheduling decisions, so observing them is free of
	// determinism hazards.
	cancelled   uint64
	ghosts      int
	highWater   int
	compactions uint64

	obs StepObserver
}

// StepObserver receives the host wall-clock duration of each Step call.
// It is the hook internal/perfstat uses to measure clock-loop occupancy;
// the observer must not touch the clock (Step is not reentrant).
type StepObserver interface {
	ObserveStep(wall time.Duration)
}

// SetStepObserver installs o (nil disables). When set, every Step is
// timed with the host wall clock and reported to o. Virtual time and
// event order are unaffected.
func (c *Clock) SetStepObserver(o StepObserver) { c.obs = o }

// Timer is a handle to a scheduled event that can be cancelled or
// rescheduled before it fires. Each event embeds the Timer that At
// returns for it, so scheduling allocates the event alone.
type Timer struct {
	ev *event
}

type event struct {
	at  time.Time
	key int64 // at - clock start, in ns: the queue's comparison key
	seq uint64
	fn  func()
	// index is non-negative while the entry is queued and -1 once it
	// fired, was compacted away, or was popped. The heaps maintain it;
	// wheel slots park it at 0.
	index int
	clock *Clock // owner, for ghost accounting on cancel
	// timer is the handle At returns. After a Reschedule it keeps
	// pointing at the event that replaced this one, whose own timer
	// goes unused.
	timer Timer
}

// New returns a Clock whose current time is start, indexed by the
// hierarchical timer wheel.
func New(start time.Time) *Clock {
	return &Clock{now: start, start: start, queue: newWheelQueue()}
}

// NewHeapBacked returns a Clock indexed by the original binary-heap event
// queue. It exists solely so differential and golden tests can pin the
// timer wheel against the reference implementation; simulations should
// use New.
func NewHeapBacked(start time.Time) *Clock {
	return &Clock{now: start, start: start, queue: &heapQueue{}}
}

// Epoch is a convenient fixed start instant for simulations.
var Epoch = time.Date(2020, time.December, 7, 0, 0, 0, 0, time.UTC)

// Now returns the current virtual time.
func (c *Clock) Now() time.Time { return c.now }

// Since returns the virtual time elapsed since t.
func (c *Clock) Since(t time.Time) time.Duration { return c.now.Sub(t) }

// Fired returns the number of events that have fired so far. Useful for
// loop-progress assertions in tests.
func (c *Clock) Fired() uint64 { return c.fired }

// Pending returns the number of events currently scheduled.
func (c *Clock) Pending() int { return c.queue.len() }

// Cancelled returns the number of timers cancelled before firing.
func (c *Clock) Cancelled() uint64 { return c.cancelled }

// Ghosts returns the number of cancelled entries still occupying queue
// slots (the lazy-discard path). Compaction keeps this bounded; see
// maybeCompact.
func (c *Clock) Ghosts() int { return c.ghosts }

// HeapHighWater returns the maximum event-queue depth observed, including
// ghost entries — the queue-indexing pressure metric perfstat tracks.
// (The name predates the timer wheel; it is part of the perfstat schema.)
func (c *Clock) HeapHighWater() int { return c.highWater }

// Compactions returns how many times the queue was rebuilt to shed ghost
// entries.
func (c *Clock) Compactions() uint64 { return c.compactions }

// After schedules fn to run d after the current virtual time. Negative
// durations are treated as zero. The returned Timer may be used to cancel.
func (c *Clock) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return c.At(c.now.Add(d), fn)
}

// At schedules fn at instant t. If t is in the virtual past, the event fires
// at the current time (never before already-queued events at the same time).
func (c *Clock) At(t time.Time, fn func()) *Timer {
	if fn == nil {
		panic("simclock: nil event func")
	}
	if t.Before(c.now) {
		t = c.now
	}
	ev := &event{at: t, key: int64(t.Sub(c.start)), seq: c.seq, fn: fn, clock: c}
	ev.timer.ev = ev
	c.seq++
	c.queue.push(ev)
	if n := c.queue.len(); n > c.highWater {
		c.highWater = n
	}
	return &ev.timer
}

// Cancel removes the event from the queue if it has not fired yet. It
// reports whether the event was still pending.
func (t *Timer) Cancel() bool {
	if t == nil || t.ev == nil || t.ev.index < 0 {
		return false
	}
	ev := t.ev
	t.ev = nil
	ev.cancel()
	return true
}

// Reschedule moves a pending timer so it fires d after the current
// virtual time instead (negative d is treated as zero). It reports false
// — and moves nothing — if the timer already fired or was cancelled. The
// moved timer re-enters scheduling order: against other events at its new
// instant it fires as if it had just been scheduled. The abandoned entry
// becomes a ghost, lazily discarded exactly like a cancellation (but not
// counted in Cancelled).
func (t *Timer) Reschedule(d time.Duration) bool {
	if t == nil || t.ev == nil || t.ev.index < 0 {
		return false
	}
	old := t.ev
	c := old.clock
	fn := old.fn
	old.fn = nil
	c.ghosts++
	t.ev = c.After(d, fn).ev
	c.maybeCompact()
	return true
}

// When returns the instant at which the timer is scheduled to fire. It
// reports false if the timer already fired or was cancelled.
func (t *Timer) When() (time.Time, bool) {
	if t == nil || t.ev == nil || t.ev.index < 0 {
		return time.Time{}, false
	}
	return t.ev.at, true
}

func (e *event) cancel() {
	if e.index >= 0 {
		e.fn = nil // release closure; the queue entry is lazily discarded
		e.clock.cancelled++
		e.clock.ghosts++
		e.clock.maybeCompact()
	}
}

// maybeCompact rebuilds the queue without ghost entries once they dominate
// it, so a cancel-heavy workload (armed-then-cancelled timers far in the
// virtual future) cannot grow the queue unboundedly. The rebuild preserves
// the (at, seq) total order, so firing order — and therefore determinism —
// is unchanged.
func (c *Clock) maybeCompact() {
	const minGhosts = 64
	if c.ghosts < minGhosts || 2*c.ghosts <= c.queue.len() {
		return
	}
	c.queue.compact()
	c.ghosts = 0
	c.compactions++
}

// Step fires the next pending event. It reports false when the queue is
// empty.
func (c *Clock) Step() bool {
	if c.obs != nil {
		start := time.Now()
		fired := c.step()
		if fired { // one observation per fired event; the empty probe is noise
			c.obs.ObserveStep(time.Since(start))
		}
		return fired
	}
	return c.step()
}

func (c *Clock) step() bool {
	for {
		ev := c.queue.popMin()
		if ev == nil {
			return false
		}
		if ev.fn == nil { // cancelled
			c.ghosts--
			continue
		}
		if ev.at.After(c.now) {
			c.now = ev.at
		}
		fn := ev.fn
		ev.fn = nil
		c.fired++
		fn()
		return true
	}
}

// Run fires events until the queue is empty.
func (c *Clock) Run() {
	c.guardLoop()
	defer func() { c.inLoop = false }()
	for c.Step() {
	}
}

// RunUntil fires events with timestamps at or before deadline, then advances
// the clock to deadline (if it is later than the last fired event).
func (c *Clock) RunUntil(deadline time.Time) {
	c.guardLoop()
	defer func() { c.inLoop = false }()
	for {
		next, ok := c.peek()
		if !ok || next.After(deadline) {
			break
		}
		c.Step()
	}
	if deadline.After(c.now) {
		c.now = deadline
	}
}

// RunFor is RunUntil(Now().Add(d)).
func (c *Clock) RunFor(d time.Duration) { c.RunUntil(c.now.Add(d)) }

// RunWhile fires events while cond() holds and events remain. It is the
// usual way to drive a simulation to a completion flag.
func (c *Clock) RunWhile(cond func() bool) {
	c.guardLoop()
	defer func() { c.inLoop = false }()
	for cond() && c.Step() {
	}
}

func (c *Clock) guardLoop() {
	if c.inLoop {
		panic("simclock: nested Run — schedule events instead of recursing into the loop")
	}
	c.inLoop = true
}

func (c *Clock) peek() (time.Time, bool) {
	for {
		ev := c.queue.peekMin()
		if ev == nil {
			return time.Time{}, false
		}
		if ev.fn == nil { // ghost at the front: discard, exactly like step
			c.queue.popMin()
			c.ghosts--
			continue
		}
		return ev.at, true
	}
}

// String summarises the clock state for debugging.
func (c *Clock) String() string {
	return fmt.Sprintf("simclock{now=%s pending=%d fired=%d}",
		c.now.Format(time.RFC3339Nano), c.queue.len(), c.fired)
}
