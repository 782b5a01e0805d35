package cloud

import (
	"runtime"
	"testing"
	"time"
	"weak"
)

// capturingCallback returns an expiry callback that closes over a fresh
// object, and a weak pointer to that object: the object is reachable
// exactly as long as the callback is. In the engine the callback closes
// over the launching job's fleet and, through it, the whole engine.
func capturingCallback(fired *bool) (func(*Lambda), weak.Pointer[[64]byte]) {
	obj := new([64]byte)
	return func(*Lambda) { obj[0]++; *fired = true }, weak.Make(obj)
}

// TestLeakReleasedLambdaCallback: the provider keeps every
// invocation record for billing, but a released record must not keep its
// expiry callback, or everything the callback captured outlives the
// invocation.
func TestLeakReleasedLambdaCallback(t *testing.T) {
	c, p := newProvider(DefaultOptions())
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
	if got := p.Lambdas(); len(got) != 1 || got[0] != l || l.State != LambdaFinished {
		t.Errorf("billing record lost after release: %d records, state %v", len(got), l.State)
	}
}

// TestLeakExpiredLambdaCallback: once the platform kills an
// invocation at the lifetime cap, its callback has run and must not be
// reachable from the record either.
func TestLeakExpiredLambdaCallback(t *testing.T) {
	c, p := newProvider(DefaultOptions())
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
	if got := p.Lambdas(); len(got) != 1 || got[0] != l {
		t.Errorf("billing record lost after expiry: %d records", len(got))
	}
}
