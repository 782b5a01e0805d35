package simclock

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"weak"
)

// TestAtAllocatesOneObject pins the scheduling cost: the event embeds
// the Timer At returns, so scheduling a prebuilt func allocates exactly
// one object. Each run fires what it scheduled, so the queue's storage
// is reused rather than grown.
func TestAtAllocatesOneObject(t *testing.T) {
	for _, c := range []*Clock{New(Epoch), NewHeapBacked(Epoch)} {
		fn := func() {}
		n := testing.AllocsPerRun(1000, func() {
			c.At(c.Now().Add(time.Millisecond), fn)
			c.Step()
		})
		if n != 1 {
			t.Errorf("%T: At allocated %v objects, want 1", c.queue, n)
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
// Lambda's expiry). Since the handle lives inside its event, holding it
// keeps the event reachable, so the event must not keep its func.
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
