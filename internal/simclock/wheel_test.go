package simclock

import (
	"testing"
	"time"
)

const tick = time.Duration(1) << tickShift // one wheel tick in ns

// TestWheelBoundaries schedules events straddling every wheel boundary —
// slot rollover at 256 ticks, level-2 and level-3 cascades, and the
// overflow horizon — and verifies global firing order.
func TestWheelBoundaries(t *testing.T) {
	delays := []time.Duration{
		0,
		time.Nanosecond,
		tick - 1, tick, tick + 1, // first slot boundary
		255 * tick, 256 * tick, 257 * tick, // level-0 window rollover
		65535 * tick, 65536 * tick, 65537 * tick, // level-1 rollover
		(1<<24 - 1) * tick, (1 << 24) * tick, // level-2 rollover
		(1<<32 - 1) * tick, // last in-wheel tick
		(1 << 32) * tick,   // first overflow tick
		(1<<32 + 7) * tick, // deep overflow
	}
	c := New(Epoch)
	var fired []int
	// Schedule in reverse so in-order firing can't be an artifact of
	// scheduling order.
	for i := len(delays) - 1; i >= 0; i-- {
		i := i
		c.After(delays[i], func() { fired = append(fired, i) })
	}
	c.Run()
	if len(fired) != len(delays) {
		t.Fatalf("fired %d of %d events", len(fired), len(delays))
	}
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if delays[a] > delays[b] {
			t.Fatalf("out of order: delay %v fired before %v", delays[a], delays[b])
		}
	}
	if got, want := c.Since(Epoch), delays[len(delays)-1]; got != want {
		t.Fatalf("final Now offset = %v, want %v", got, want)
	}
}

// TestWheelFIFOAcrossCascade verifies that two events at the same instant
// fire in scheduling order even when that instant sits beyond a cascade
// boundary, so both events ride a coarse slot down together.
func TestWheelFIFOAcrossCascade(t *testing.T) {
	for _, d := range []time.Duration{300 * tick, 70000 * tick, (1 << 25) * tick, (1 << 33) * tick} {
		c := New(Epoch)
		var order []int
		for i := 0; i < 5; i++ {
			i := i
			c.After(d, func() { order = append(order, i) })
		}
		// A nearer event forces the cursor to walk before the cascade.
		c.After(tick, func() {})
		c.Run()
		for i, got := range order {
			if got != i {
				t.Fatalf("delay %v: same-instant order %v, want ascending", d, order)
			}
		}
	}
}

// TestWheelLateInsertIntoPassedRegion pins the cursor-advance contract:
// peeking (via RunUntil) can advance the wheel cursor far past Now, and a
// subsequent event scheduled inside the passed region must still fire, in
// the right order.
func TestWheelLateInsertIntoPassedRegion(t *testing.T) {
	c := New(Epoch)
	var order []string
	c.After(1000*tick, func() { order = append(order, "far") })
	// RunUntil walks the cursor up to the deadline's tick without firing.
	c.RunUntil(Epoch.Add(500 * tick))
	// These land in ticks the cursor already drained.
	c.After(10*tick, func() { order = append(order, "mid") })
	c.After(0, func() { order = append(order, "now") })
	c.Run()
	if want := "now,mid,far"; order[0]+","+order[1]+","+order[2] != want {
		t.Fatalf("firing order %v, want %s", order, want)
	}
}

// FuzzTimerWheel feeds arbitrary After/Cancel/Reschedule/Step
// interleavings — with delays decoded to cross slot, cascade, and
// overflow boundaries — through the differential pair, asserting no
// panic, monotonic Now, FIFO-at-same-instant, and heap/wheel agreement on
// every observable after every operation.
func FuzzTimerWheel(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x04, 0xff, 0x01, 0x02, 0x03})             // schedule far, cancel, steps
	f.Add([]byte{0x40, 0x08, 0x80, 0x20, 0x02, 0x03, 0x03}) // mixed delays + reschedule
	f.Add([]byte{0xfc, 0xff, 0xfc, 0x00, 0x03, 0x03, 0x03}) // overflow-horizon delays
	// fire timer 0, schedule timer 1 into its recycled event, then cancel
	// and reschedule through timer 0's stale handle
	f.Add([]byte{0x04, 0x00, 0x03, 0x00, 0x04, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03, 0x00})
	f.Fuzz(func(t *testing.T, program []byte) {
		p := newClockPair()
		last := p.wheel.Now()
		for i := 0; i < len(program); i++ {
			b := program[i]
			// Decode: low 2 bits pick the op; the rest (plus the next
			// byte when present) form mantissa<<(3*exp), spanning
			// sub-tick ns up to past the 2^52 ns overflow horizon.
			var arg int
			if i+1 < len(program) {
				i++
				arg = int(program[i])
			}
			mant := int64(b>>2) | int64(arg&0x07)<<6
			exp := uint(arg >> 3) // 0..31 → shifts 0..93, clamped below
			d := time.Duration(mant << min(3*exp, 54))
			switch b & 3 {
			case 0:
				p.schedule(d)
			case 1:
				p.cancel(arg)
			case 2:
				p.reschedule(arg, d)
			case 3:
				p.step()
			}
			if err := p.check(); err != nil {
				t.Fatal(err)
			}
			if now := p.wheel.Now(); now.Before(last) {
				t.Fatalf("Now went backwards: %s -> %s", last, now)
			} else {
				last = now
			}
		}
		// Drain; check() compares the full firing logs, which encode
		// FIFO-at-same-instant (both impls log id@offset in fire order).
		for p.wheel.Pending() > 0 || p.heap.Pending() > 0 {
			p.step()
			if err := p.check(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
