package simclock

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestAfterFiresInOrder(t *testing.T) {
	c := New(Epoch)
	var got []int
	c.After(3*time.Second, func() { got = append(got, 3) })
	c.After(1*time.Second, func() { got = append(got, 1) })
	c.After(2*time.Second, func() { got = append(got, 2) })
	c.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if c.Since(Epoch) != 3*time.Second {
		t.Fatalf("clock advanced to %v, want 3s", c.Since(Epoch))
	}
}

func TestSameInstantFIFO(t *testing.T) {
	c := New(Epoch)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		c.After(time.Second, func() { got = append(got, i) })
	}
	c.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	c := New(Epoch)
	var done bool
	c.After(time.Second, func() {
		c.After(time.Second, func() {
			c.After(time.Second, func() { done = true })
		})
	})
	c.Run()
	if !done {
		t.Fatal("nested events did not fire")
	}
	if got := c.Since(Epoch); got != 3*time.Second {
		t.Fatalf("elapsed = %v, want 3s", got)
	}
}

func TestCancel(t *testing.T) {
	c := New(Epoch)
	fired := false
	tm := c.After(time.Second, func() { fired = true })
	if !tm.Cancel() {
		t.Fatal("Cancel reported not pending")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel reported pending")
	}
	c.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	c := New(Epoch)
	tm := c.After(0, func() {})
	c.Run()
	if tm.Cancel() {
		t.Fatal("Cancel after fire reported pending")
	}
}

func TestTimerWhen(t *testing.T) {
	c := New(Epoch)
	tm := c.After(5*time.Second, func() {})
	at, ok := tm.When()
	if !ok || !at.Equal(Epoch.Add(5*time.Second)) {
		t.Fatalf("When = %v %v", at, ok)
	}
	tm.Cancel()
	if _, ok := tm.When(); ok {
		t.Fatal("When after cancel reported pending")
	}
}

func TestRunUntil(t *testing.T) {
	c := New(Epoch)
	var got []int
	c.After(1*time.Second, func() { got = append(got, 1) })
	c.After(5*time.Second, func() { got = append(got, 5) })
	c.RunUntil(Epoch.Add(2 * time.Second))
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("RunUntil fired %v", got)
	}
	if c.Since(Epoch) != 2*time.Second {
		t.Fatalf("clock = %v, want 2s", c.Since(Epoch))
	}
	c.Run()
	if len(got) != 2 {
		t.Fatalf("remaining event did not fire: %v", got)
	}
}

func TestRunFor(t *testing.T) {
	c := New(Epoch)
	n := 0
	c.After(time.Second, func() { n++ })
	c.After(3*time.Second, func() { n++ })
	c.RunFor(2 * time.Second)
	if n != 1 {
		t.Fatalf("RunFor fired %d events, want 1", n)
	}
}

func TestRunWhile(t *testing.T) {
	c := New(Epoch)
	n := 0
	for i := 0; i < 100; i++ {
		c.After(time.Duration(i)*time.Second, func() { n++ })
	}
	c.RunWhile(func() bool { return n < 10 })
	if n != 10 {
		t.Fatalf("RunWhile fired %d, want 10", n)
	}
}

func TestPastEventClampsToNow(t *testing.T) {
	c := New(Epoch)
	c.After(10*time.Second, func() {
		c.At(Epoch, func() {}) // in the past
	})
	c.Run()
	if got := c.Since(Epoch); got != 10*time.Second {
		t.Fatalf("clock moved backwards or past event mis-scheduled: %v", got)
	}
}

func TestPendingAndFired(t *testing.T) {
	c := New(Epoch)
	c.After(time.Second, func() {})
	c.After(2*time.Second, func() {})
	if c.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", c.Pending())
	}
	c.Run()
	if c.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", c.Fired())
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending after run = %d", c.Pending())
	}
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil func")
		}
	}()
	New(Epoch).After(time.Second, nil)
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the final clock equals the max delay.
func TestQuickEventOrdering(t *testing.T) {
	prop := func(delaysMS []uint16) bool {
		c := New(Epoch)
		var fireTimes []time.Time
		var maxAt time.Time = Epoch
		for _, d := range delaysMS {
			at := Epoch.Add(time.Duration(d) * time.Millisecond)
			if at.After(maxAt) {
				maxAt = at
			}
			c.After(time.Duration(d)*time.Millisecond, func() {
				fireTimes = append(fireTimes, c.Now())
			})
		}
		c.Run()
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i].Before(fireTimes[i-1]) {
				return false
			}
		}
		return c.Now().Equal(maxAt)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset leaves exactly the complement to
// fire.
func TestQuickCancelSubset(t *testing.T) {
	prop := func(delaysMS []uint16, cancelMask []bool) bool {
		c := New(Epoch)
		fired := 0
		var timers []Timer
		for _, d := range delaysMS {
			timers = append(timers, c.After(time.Duration(d)*time.Millisecond, func() { fired++ }))
		}
		cancelled := 0
		for i, tm := range timers {
			if i < len(cancelMask) && cancelMask[i] {
				if tm.Cancel() {
					cancelled++
				}
			}
		}
		c.Run()
		return fired == len(delaysMS)-cancelled
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCancelCounters(t *testing.T) {
	c := New(Epoch)
	tm1 := c.After(time.Second, func() {})
	tm2 := c.After(2*time.Second, func() {})
	tm1.Cancel()
	tm1.Cancel() // second cancel is a no-op
	if got := c.Cancelled(); got != 1 {
		t.Fatalf("Cancelled = %d, want 1", got)
	}
	if got := c.Ghosts(); got != 1 {
		t.Fatalf("Ghosts = %d, want 1", got)
	}
	c.Run()
	if got := c.Ghosts(); got != 0 {
		t.Fatalf("Ghosts after Run = %d, want 0 (popped lazily)", got)
	}
	_ = tm2
	if got := c.HeapHighWater(); got != 2 {
		t.Fatalf("HeapHighWater = %d, want 2", got)
	}
}

// TestRescheduleOrder pins what netsim's single completion timer relies
// on: at its new instant a rescheduled timer fires after the events queued
// before the Reschedule and before those queued after it, and its old
// entry becomes a ghost that Cancelled does not count.
func TestRescheduleOrder(t *testing.T) {
	for _, c := range []*Clock{New(Epoch), NewHeapBacked(Epoch)} {
		name := fmt.Sprintf("%T", c.queue)
		var got []string
		record := func(s string) func() { return func() { got = append(got, s) } }
		tm := c.After(5*time.Second, record("moved"))
		c.After(time.Second, record("before"))
		cancelled, ghosts := c.Cancelled(), c.Ghosts()
		if !tm.Reschedule(time.Second) {
			t.Fatalf("%s: Reschedule of a pending timer reported false", name)
		}
		c.After(time.Second, record("after"))
		if c.Cancelled() != cancelled {
			t.Errorf("%s: Cancelled = %d after Reschedule, want %d", name, c.Cancelled(), cancelled)
		}
		if c.Ghosts() != ghosts+1 {
			t.Errorf("%s: Ghosts = %d after Reschedule, want %d", name, c.Ghosts(), ghosts+1)
		}
		c.Run()
		if want := []string{"before", "moved", "after"}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: firing order %v, want %v", name, got, want)
		}
	}
}

// TestGhostEntriesBounded is the regression test for the lazy-discard
// path: a cancel-heavy workload (10k armed-then-cancelled timers per
// round, all far in the virtual future so they are never popped) must not
// grow ghost heap entries unboundedly across Step calls — compaction has
// to shed them.
func TestGhostEntriesBounded(t *testing.T) {
	c := New(Epoch)
	const rounds, perRound = 10, 10_000
	fired := 0
	for r := 0; r < rounds; r++ {
		timers := make([]Timer, 0, perRound)
		for i := 0; i < perRound; i++ {
			timers = append(timers, c.After(time.Hour, func() { t.Fatal("cancelled timer fired") }))
		}
		for _, tm := range timers {
			if !tm.Cancel() {
				t.Fatal("Cancel reported not pending")
			}
		}
		c.After(time.Millisecond, func() { fired++ })
		if !c.Step() {
			t.Fatal("Step found no live event")
		}
		// Live events never exceed perRound+1, so a bounded heap means
		// ghosts are being compacted away rather than accumulating
		// round over round.
		if g := c.Ghosts(); g > perRound+1 {
			t.Fatalf("round %d: %d ghost entries — compaction not keeping up", r, g)
		}
		if n := c.Pending(); n > perRound+1 {
			t.Fatalf("round %d: heap holds %d entries for 0 live timers", r, n)
		}
	}
	if fired != rounds {
		t.Fatalf("fired %d live events, want %d", fired, rounds)
	}
	if c.Cancelled() != rounds*perRound {
		t.Fatalf("Cancelled = %d, want %d", c.Cancelled(), rounds*perRound)
	}
	if c.Compactions() == 0 {
		t.Fatal("expected at least one heap compaction")
	}
}

type stepRecorder struct {
	steps []time.Duration
}

func (r *stepRecorder) ObserveStep(d time.Duration) { r.steps = append(r.steps, d) }

func TestStepObserver(t *testing.T) {
	c := New(Epoch)
	rec := &stepRecorder{}
	c.SetStepObserver(rec)
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		c.After(time.Duration(i)*time.Second, func() { got = append(got, i) })
	}
	c.Run()
	if len(rec.steps) != 5 {
		t.Fatalf("observed %d steps, want 5", len(rec.steps))
	}
	for i := range got { // observation must not perturb firing order
		if got[i] != i {
			t.Fatalf("order with observer = %v", got)
		}
	}
	c.SetStepObserver(nil)
	c.After(time.Second, func() {})
	c.Run()
	if len(rec.steps) != 5 {
		t.Fatalf("observer fired after removal: %d", len(rec.steps))
	}
}
