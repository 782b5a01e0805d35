package simclock

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"weak"
)

// TestAtOnWarmClockAllocatesNothing pins the scheduling cost: a fired
// event goes back on the clock's free list and the next At reuses it, and
// the Timer it returns is a value, so scheduling a prebuilt func on a warm
// clock allocates nothing. Each run fires what it scheduled, so the
// queue's storage is reused rather than grown.
func TestAtOnWarmClockAllocatesNothing(t *testing.T) {
	for _, c := range []*Clock{New(Epoch), NewHeapBacked(Epoch)} {
		fn := func() {}
		n := testing.AllocsPerRun(1000, func() {
			c.At(c.Now().Add(time.Millisecond), fn)
			c.Step()
		})
		if n != 0 {
			t.Errorf("%T: At on a warm clock allocated %v objects, want 0", c.queue, n)
		}
	}
}

// TestFreeListCapped: neither drive loop empties the queue, so a burst of
// fired events must not all stay on the free list for the rest of the run.
func TestFreeListCapped(t *testing.T) {
	c := New(Epoch)
	for i := 0; i < 4*freeCap; i++ {
		c.After(time.Duration(i)*time.Millisecond, func() {})
	}
	c.Run()
	if len(c.free) != freeCap {
		t.Fatalf("free list holds %d events after %d fired, want the cap %d", len(c.free), 4*freeCap, freeCap)
	}
}

// TestStaleTimerHandleIsInert holds a handle past its event's firing,
// cancellation or Reschedule, then lets the clock recycle that event for
// a new schedule. The stale handle must not cancel, move or report the
// event that reuses the slot.
func TestStaleTimerHandleIsInert(t *testing.T) {
	for _, c := range []*Clock{New(Epoch), NewHeapBacked(Epoch)} {
		name := fmt.Sprintf("%T", c.queue)
		for _, retire := range []struct {
			what string
			do   func(tm *Timer)
		}{
			{"fired", func(*Timer) {}},
			{"cancelled", func(tm *Timer) { tm.Cancel() }},
			// The copy goes stale; the moved handle fires (and frees
			// its own event) in the Run below as well.
			{"rescheduled", func(tm *Timer) { moved := *tm; moved.Reschedule(time.Millisecond) }},
		} {
			stale := c.After(time.Millisecond, func() {})
			retire.do(&stale)
			c.Run() // fires or pops every event; all go on the free list
			fresh := 0
			var reused Timer
			for range len(c.free) {
				if tm := c.After(time.Second, func() { fresh++ }); tm.ev == stale.ev {
					reused = tm
				}
			}
			if reused.ev == nil {
				t.Fatalf("%s/%s: no new schedule reused the retired event; the test lost its teeth", name, retire.what)
			}
			scheduled := c.Pending()
			if _, ok := stale.When(); ok {
				t.Errorf("%s/%s: a stale handle reports the reused event pending", name, retire.what)
			}
			if stale.Reschedule(time.Hour) {
				t.Errorf("%s/%s: a stale handle moved the reused event", name, retire.what)
			}
			if stale.Cancel() {
				t.Errorf("%s/%s: a stale handle cancelled the reused event", name, retire.what)
			}
			if at, ok := reused.When(); !ok || !at.Equal(c.Now().Add(time.Second)) {
				t.Errorf("%s/%s: reused event When = %v, %v; want pending in 1s", name, retire.what, at, ok)
			}
			c.Run()
			if fresh != scheduled {
				t.Errorf("%s/%s: %d of %d new events fired", name, retire.what, fresh, scheduled)
			}
		}
	}
}

// TestTimerAcrossReschedules moves one timer several times, then checks
// it fires once, at its last instant, and that its handle then reports
// it gone. A second timer, rescheduled twice, must still cancel.
func TestTimerAcrossReschedules(t *testing.T) {
	for _, c := range []*Clock{New(Epoch), NewHeapBacked(Epoch)} {
		name := fmt.Sprintf("%T", c.queue)
		var firedAt []time.Duration
		tm := c.After(10*time.Second, func() { firedAt = append(firedAt, c.Since(Epoch)) })
		for _, d := range []time.Duration{5 * time.Second, 20 * time.Second, 3 * time.Second} {
			if !tm.Reschedule(d) {
				t.Fatalf("%s: Reschedule(%v) of a pending timer reported false", name, d)
			}
			if at, ok := tm.When(); !ok || at.Sub(Epoch) != d {
				t.Fatalf("%s: When = %v, %v after Reschedule(%v)", name, at.Sub(Epoch), ok, d)
			}
		}
		other := c.After(time.Second, func() { t.Errorf("%s: cancelled timer fired", name) })
		other.Reschedule(2 * time.Second)
		other.Reschedule(4 * time.Second)
		if !other.Cancel() {
			t.Fatalf("%s: Cancel after two Reschedules reported not pending", name)
		}
		if other.Cancel() || other.Reschedule(time.Second) {
			t.Fatalf("%s: a cancelled timer still reports pending", name)
		}
		c.Run()
		if len(firedAt) != 1 || firedAt[0] != 3*time.Second {
			t.Fatalf("%s: fired at %v, want once at 3s", name, firedAt)
		}
		if _, ok := tm.When(); ok {
			t.Errorf("%s: When reports a fired timer pending", name)
		}
		if tm.Reschedule(time.Second) || tm.Cancel() {
			t.Errorf("%s: a fired timer still reports pending", name)
		}
		if c.Cancelled() != 1 {
			t.Errorf("%s: Cancelled = %d, want 1", name, c.Cancelled())
		}
	}
}

// TestLeakHeldTimerClosure: components keep Timer handles long after
// their events fired or were cancelled (netsim's completion timer, a
// Lambda's expiry). The handle points at its event, and the clock keeps
// recycled events on its free list, so holding either keeps the event
// reachable: the event must not keep its func.
func TestLeakHeldTimerClosure(t *testing.T) {
	for _, c := range []*Clock{New(Epoch), NewHeapBacked(Epoch)} {
		name := fmt.Sprintf("%T", c.queue)
		capture := func() (func(), weak.Pointer[[64]byte]) {
			obj := new([64]byte)
			return func() { obj[0]++ }, weak.Make(obj)
		}
		fn, firedW := capture()
		fired := c.After(time.Second, fn)
		fn, cancelledW := capture()
		cancelled := c.After(time.Second, fn)
		fn, movedW := capture()
		moved := c.After(time.Second, fn)
		fn = nil
		cancelled.Cancel()
		moved.Reschedule(2 * time.Second)
		c.Run()
		runtime.GC()
		for what, w := range map[string]weak.Pointer[[64]byte]{
			"fired": firedW, "cancelled": cancelledW, "rescheduled": movedW,
		} {
			if w.Value() != nil {
				t.Errorf("%s: a held Timer of a %s event still reaches its func's captures", name, what)
			}
		}
		runtime.KeepAlive(fired)
		runtime.KeepAlive(cancelled)
		runtime.KeepAlive(moved)
	}
}
