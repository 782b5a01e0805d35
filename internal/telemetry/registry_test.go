package telemetry

import (
	"strconv"
	"testing"
)

// TestRegistryHitAllocatesNothing pins the per-job resolution path:
// every engine and billing meter re-resolves its handles on a shared hub,
// so resolving an instrument that already exists must not allocate, even
// when the call site passes its labels out of order.
func TestRegistryHitAllocatesNothing(t *testing.T) {
	h := NewUntraced()
	a, b := L("a", "1"), L("b", "2")
	cases := []struct {
		name  string
		first func() any // resolves the handle
		again func() any // resolves it again, labels out of order
	}{
		{"counter/0", func() any { return h.Counter("c0") }, func() any { return h.Counter("c0") }},
		{"counter/1", func() any { return h.Counter("c1", a) }, func() any { return h.Counter("c1", a) }},
		{"counter/2", func() any { return h.Counter("c2", a, b) }, func() any { return h.Counter("c2", b, a) }},
		{"gauge/0", func() any { return h.Gauge("g0") }, func() any { return h.Gauge("g0") }},
		{"gauge/1", func() any { return h.Gauge("g1", a) }, func() any { return h.Gauge("g1", a) }},
		{"gauge/2", func() any { return h.Gauge("g2", a, b) }, func() any { return h.Gauge("g2", b, a) }},
		{"histogram/0", func() any { return h.Histogram("h0", nil) }, func() any { return h.Histogram("h0", nil) }},
		{"histogram/1", func() any { return h.Histogram("h1", nil, a) }, func() any { return h.Histogram("h1", nil, a) }},
		{"histogram/2", func() any { return h.Histogram("h2", nil, a, b) }, func() any { return h.Histogram("h2", nil, b, a) }},
	}
	for _, c := range cases {
		first := c.first()
		if got := c.again(); got != first {
			t.Errorf("%s: the two label orders resolved different handles", c.name)
		}
		if n := testing.AllocsPerRun(100, func() { c.again() }); n != 0 {
			t.Errorf("%s: a registry hit allocated %v objects, want 0", c.name, n)
		}
	}
}

// TestRegistryManyLabels covers the heap fallback for instruments with
// more labels than the stack sort holds: both orders resolve one handle,
// whose labels come out sorted.
func TestRegistryManyLabels(t *testing.T) {
	r := NewRegistry()
	var fwd, rev []Label
	for i := 0; i < 9; i++ {
		fwd = append(fwd, L("k"+strconv.Itoa(i), strconv.Itoa(i)))
		rev = append([]Label{L("k"+strconv.Itoa(i), strconv.Itoa(i))}, rev...)
	}
	c := r.Counter("many", rev...)
	if r.Counter("many", fwd...) != c {
		t.Fatal("9-label counter: the two label orders resolved different handles")
	}
	if r.Counter("many", fwd[:8]...) == c {
		t.Fatal("an 8-label counter resolved the 9-label one")
	}
	for i, l := range c.labels {
		if l != fwd[i] {
			t.Fatalf("label %d = %v, want %v", i, l, fwd[i])
		}
	}
}
