package simclock

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// The differential harness runs the same randomized program of
// schedule/cancel/reschedule/step operations against a heap-backed clock
// and a wheel-backed clock and requires every observable — firing order,
// virtual time, and all the perfstat counters — to match exactly. This is
// the correctness bar the timer wheel ships under: not "close enough",
// byte-for-byte the same simulation.

// clockPair drives the two implementations in lockstep.
type clockPair struct {
	heap, wheel *Clock
	// firing log entries are appended by the scheduled closures; both
	// clocks append tagged entries so order mismatches localize.
	heapLog, wheelLog []string
	// Every handle ever returned stays held, long after its event fired
	// or was cancelled and the clock recycled the event for a later
	// schedule, so stale handles are exercised on every operation.
	heapTimers  []Timer
	wheelTimers []Timer
	// The model: whether timer i is still pending on each clock, and
	// the instant it is due. Both clocks recycle events the same way, so
	// the model, not the other clock, is what catches a stale handle
	// acting on the event that reused its slot.
	heapLive, wheelLive []bool
	due                 []time.Time
}

func newClockPair() *clockPair {
	return &clockPair{heap: NewHeapBacked(Epoch), wheel: New(Epoch)}
}

func (p *clockPair) schedule(d time.Duration) {
	id := len(p.heapTimers)
	p.heapTimers = append(p.heapTimers, p.heap.After(d, func() {
		p.heapLive[id] = false
		p.heapLog = append(p.heapLog, fmt.Sprintf("%d@%d", id, p.heap.Since(Epoch)))
	}))
	p.wheelTimers = append(p.wheelTimers, p.wheel.After(d, func() {
		p.wheelLive[id] = false
		p.wheelLog = append(p.wheelLog, fmt.Sprintf("%d@%d", id, p.wheel.Since(Epoch)))
	}))
	p.heapLive = append(p.heapLive, true)
	p.wheelLive = append(p.wheelLive, true)
	p.due = append(p.due, p.heap.Now().Add(max(d, 0)))
}

func (p *clockPair) cancel(i int) {
	if len(p.heapTimers) == 0 {
		return
	}
	i %= len(p.heapTimers)
	got, want := p.wheelTimers[i].Cancel(), p.heapTimers[i].Cancel()
	if got != want || got != p.heapLive[i] {
		panic(fmt.Sprintf("Cancel(timer %d): wheel=%v heap=%v model=%v", i, got, want, p.heapLive[i]))
	}
	p.heapLive[i], p.wheelLive[i] = false, false
}

func (p *clockPair) reschedule(i int, d time.Duration) {
	if len(p.heapTimers) == 0 {
		return
	}
	i %= len(p.heapTimers)
	got, want := p.wheelTimers[i].Reschedule(d), p.heapTimers[i].Reschedule(d)
	if got != want || got != p.heapLive[i] {
		panic(fmt.Sprintf("Reschedule(timer %d): wheel=%v heap=%v model=%v", i, got, want, p.heapLive[i]))
	}
	if got {
		p.due[i] = p.heap.Now().Add(max(d, 0))
	}
}

func (p *clockPair) step() {
	got, want := p.wheel.Step(), p.heap.Step()
	if got != want {
		panic(fmt.Sprintf("Step: wheel=%v heap=%v", got, want))
	}
}

func (p *clockPair) runFor(d time.Duration) {
	p.heap.RunFor(d)
	p.wheel.RunFor(d)
}

// check compares every observable of the two clocks, and every handle
// either clock ever returned against the model.
func (p *clockPair) check() error {
	h, w := p.heap, p.wheel
	if !h.Now().Equal(w.Now()) {
		return fmt.Errorf("Now: heap=%s wheel=%s", h.Now(), w.Now())
	}
	type obs struct {
		fired, cancelled, compactions uint64
		pending, ghosts, highWater    int
	}
	ho := obs{h.Fired(), h.Cancelled(), h.Compactions(), h.Pending(), h.Ghosts(), h.HeapHighWater()}
	wo := obs{w.Fired(), w.Cancelled(), w.Compactions(), w.Pending(), w.Ghosts(), w.HeapHighWater()}
	if ho != wo {
		return fmt.Errorf("counters: heap=%+v wheel=%+v", ho, wo)
	}
	for i := range p.heapTimers {
		for _, side := range []struct {
			name string
			tm   Timer
			live bool
		}{{"heap", p.heapTimers[i], p.heapLive[i]}, {"wheel", p.wheelTimers[i], p.wheelLive[i]}} {
			at, ok := side.tm.When()
			if ok != side.live || ok && !at.Equal(p.due[i]) {
				return fmt.Errorf("%s timer %d: When = %s, %v; model pending=%v due %s",
					side.name, i, at, ok, side.live, p.due[i])
			}
		}
	}
	if len(p.heapLog) != len(p.wheelLog) {
		return fmt.Errorf("firing log length: heap=%d wheel=%d", len(p.heapLog), len(p.wheelLog))
	}
	for i := range p.heapLog {
		if p.heapLog[i] != p.wheelLog[i] {
			return fmt.Errorf("firing log entry %d: heap=%q wheel=%q", i, p.heapLog[i], p.wheelLog[i])
		}
	}
	return nil
}

// randomDelay draws delays spanning every wheel regime: sub-tick, within
// the level-0 window, across each cascade level, and past the overflow
// horizon (2^32 ticks ≈ 2^52 ns).
func randomDelay(rng *rand.Rand) time.Duration {
	exp := rng.Intn(56) // up to ~2^55 ns > overflow horizon
	d := time.Duration(rng.Int63n(1 << uint(exp)))
	if rng.Intn(16) == 0 {
		d = -d // exercise the clamp-to-now path
	}
	return d
}

// runProgram executes a seeded ~200-op random program on a fresh pair,
// verifying observables after every operation, then drains both clocks.
func runProgram(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	p := newClockPair()
	ops := 150 + rng.Intn(100)
	for op := 0; op < ops; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // bias toward scheduling so queues stay populated
			p.schedule(randomDelay(rng))
		case 4, 5:
			p.cancel(rng.Intn(1 << 20))
		case 6:
			p.reschedule(rng.Intn(1<<20), randomDelay(rng))
		case 7, 8:
			p.step()
		case 9:
			p.runFor(randomDelay(rng))
		}
		if err := p.check(); err != nil {
			return fmt.Errorf("seed %d op %d: %w", seed, op, err)
		}
	}
	for p.heap.Pending() > 0 || p.wheel.Pending() > 0 {
		p.step()
		if err := p.check(); err != nil {
			return fmt.Errorf("seed %d drain: %w", seed, err)
		}
	}
	return nil
}

// TestWheelHeapEquivalence is the differential property test: for any
// seed, the wheel and the heap produce identical firing order and
// identical ghost/cancelled/high-water/compaction counters.
func TestWheelHeapEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		if err := runProgram(seed); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(9))}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestWheelHeapEquivalenceCancelHeavy pins the compaction path: mass
// cancellations must trigger the same number of compactions on both
// implementations and leave identical ghost counts.
func TestWheelHeapEquivalenceCancelHeavy(t *testing.T) {
	p := newClockPair()
	for round := 0; round < 10; round++ {
		for i := 0; i < 1000; i++ {
			p.schedule(time.Duration(i+1) * 700 * time.Microsecond * time.Duration(round+1))
		}
		base := len(p.heapTimers) - 1000
		for i := 0; i < 990; i++ {
			p.cancel(base + i)
		}
		if err := p.check(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if p.heap.Compactions() == 0 {
		t.Fatal("cancel-heavy program triggered no compactions; the test lost its teeth")
	}
	for p.heap.Pending() > 0 {
		p.step()
	}
	if err := p.check(); err != nil {
		t.Fatal(err)
	}
}
