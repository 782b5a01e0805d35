package cloud

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"splitserve/internal/eventlog"
	"splitserve/internal/simclock"
)

// capturingCallback returns an expiry callback that closes over a fresh
// object, and a weak pointer to that object: the object is reachable
// exactly as long as the callback is. In the engine the callback closes
// over the launching job's fleet and, through it, the whole engine.
func capturingCallback(fired *bool) (func(*Lambda), weak.Pointer[[64]byte]) {
	obj := new([64]byte)
	return func(*Lambda) { obj[0]++; *fired = true }, weak.Make(obj)
}

// logged counts the bus's events of type typ naming invocation id.
func logged(bus *eventlog.Bus, typ eventlog.Type, id string) int {
	n := 0
	for _, ev := range bus.Events() {
		if ev.Type == typ && ev.Exec == id {
			n++
		}
	}
	return n
}

// dropRecord lets go of the caller's last reference to an ended
// invocation, *l, and reports whether the record or its egress pool is
// still reachable: the provider keeps no ledger of invocations.
func dropRecord(l **Lambda) (record, egress bool) {
	wl, we := weak.Make(*l), weak.Make((*l).Egress)
	*l = nil
	runtime.GC()
	return wl.Value() != nil, we.Value() != nil
}

// TestLeakReleasedLambdaCallback: a released invocation record must not
// keep its expiry callback, or everything the callback captured outlives
// the invocation while the caller keeps the record to bill it. Once the
// caller lets go, the provider must not keep the record either.
func TestLeakReleasedLambdaCallback(t *testing.T) {
	c, p := newProvider(DefaultOptions())
	bus := eventlog.NewBus(simclock.Epoch)
	p.SetEventLog(bus)
	var fired bool
	expired, captured := capturingCallback(&fired)
	l, err := p.Invoke(LambdaConfig{MemoryMB: 1536}, nil, expired)
	if err != nil {
		t.Fatal(err)
	}
	expired = nil
	c.RunFor(time.Second)
	if l.State != LambdaRunning {
		t.Fatalf("state %v after start-up, want running", l.State)
	}
	p.Release(l)
	c.Run()
	runtime.GC()
	if fired {
		t.Fatal("a released invocation's expiry callback fired")
	}
	if captured.Value() != nil {
		t.Error("the released invocation still reaches its expiry callback's captures")
	}
	if l.State != LambdaFinished || logged(bus, eventlog.LambdaInvoke, l.ID) != 1 || logged(bus, eventlog.LambdaRelease, l.ID) != 1 {
		t.Errorf("state %v after release, want one lambda_invoke and one lambda_release of %s", l.State, l.ID)
	}
	if record, egress := dropRecord(&l); record || egress {
		t.Errorf("the provider keeps a released invocation: record %v, egress pool %v", record, egress)
	}
	runtime.KeepAlive(p)
}

// TestLeakExpiredLambdaCallback: once the platform kills an
// invocation at the lifetime cap, its callback has run and must not be
// reachable from the record either, nor the record from the provider.
func TestLeakExpiredLambdaCallback(t *testing.T) {
	c, p := newProvider(DefaultOptions())
	bus := eventlog.NewBus(simclock.Epoch)
	p.SetEventLog(bus)
	var fired bool
	expired, captured := capturingCallback(&fired)
	l, err := p.Invoke(LambdaConfig{MemoryMB: 1536}, nil, expired)
	if err != nil {
		t.Fatal(err)
	}
	expired = nil
	c.Run()
	runtime.GC()
	if !fired || l.State != LambdaExpired {
		t.Fatalf("fired %v, state %v: want the lifetime cap to kill the invocation", fired, l.State)
	}
	if captured.Value() != nil {
		t.Error("the expired invocation still reaches its expiry callback's captures")
	}
	if logged(bus, eventlog.LambdaInvoke, l.ID) != 1 {
		t.Errorf("want one lambda_invoke of %s", l.ID)
	}
	if record, egress := dropRecord(&l); record || egress {
		t.Errorf("the provider keeps an expired invocation: record %v, egress pool %v", record, egress)
	}
	runtime.KeepAlive(p)
}
