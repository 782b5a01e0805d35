package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"splitserve/internal/simclock"
)

// The differential harness runs one random program against Network and
// against the map-based reference in reference_test.go, each on a clock of
// its own with two networks on it, and requires the two logs to match
// entry for entry. Every entry carries the virtual time, the clock's Fired
// count and every flow's current rate, so the logs pin completion
// instants, callback order, fired events and rate assignment at once.

// flowNet is the surface the harness drives. Pools and flows are named by
// creation index, so one program addresses both implementations.
type flowNet interface {
	newPool(capacity float64)
	start(bytes, rateCap float64, pools []int, done func()) int
	cancel(i int) bool
	// armed returns the index of the flow whose completion fires first,
	// or -1 when no completion is armed.
	armed() int
	flowCount() int
	rates() []float64
}

type netAdapter struct {
	n     *Network
	pools []*Pool
	flows []*Flow
}

func (a *netAdapter) newPool(capacity float64) {
	a.pools = append(a.pools, a.n.NewPool("p", capacity))
}

func (a *netAdapter) start(bytes, rateCap float64, pools []int, done func()) int {
	ps := make([]*Pool, len(pools))
	for i, p := range pools {
		ps[i] = a.pools[p]
	}
	a.flows = append(a.flows, a.n.StartFlow(bytes, rateCap, ps, done))
	return len(a.flows) - 1
}

func (a *netAdapter) cancel(i int) bool { return a.n.Cancel(a.flows[i]) }

func (a *netAdapter) armed() int {
	for i, f := range a.flows {
		if f == a.n.next {
			return i
		}
	}
	return -1
}

func (a *netAdapter) flowCount() int { return len(a.flows) }

func (a *netAdapter) rates() []float64 {
	out := make([]float64, len(a.flows))
	for i, f := range a.flows {
		out[i] = f.rate
	}
	return out
}

type refAdapter struct {
	n     *refNetwork
	pools []*refPool
	flows []*refFlow
}

func (a *refAdapter) newPool(capacity float64) {
	a.pools = append(a.pools, a.n.NewPool("p", capacity))
}

func (a *refAdapter) start(bytes, rateCap float64, pools []int, done func()) int {
	ps := make([]*refPool, len(pools))
	for i, p := range pools {
		ps[i] = a.pools[p]
	}
	a.flows = append(a.flows, a.n.StartFlow(bytes, rateCap, ps, done))
	return len(a.flows) - 1
}

func (a *refAdapter) cancel(i int) bool { return a.n.Cancel(a.flows[i]) }

// armed finds the flow whose timer fires first: the earliest instant,
// and among equals the first in flow order, which was armed first.
func (a *refAdapter) armed() int {
	best := -1
	var first time.Time
	for i, f := range a.flows {
		if at, ok := f.timer.When(); ok && !f.finished && (best < 0 || at.Before(first)) {
			best, first = i, at
		}
	}
	return best
}

func (a *refAdapter) flowCount() int { return len(a.flows) }

func (a *refAdapter) rates() []float64 {
	out := make([]float64, len(a.flows))
	for i, f := range a.flows {
		out[i] = f.rate
	}
	return out
}

type opKind int

const (
	opStart opKind = iota
	opCancel
	opCancelArmed
)

type netOp struct {
	at      time.Duration
	net     int
	kind    opKind
	bytes   float64
	rateCap float64
	pools   []int
	target  int
}

// foreignEvent is a non-netsim event at a flow-completion instant. arm is
// when it gets scheduled: at 0 it is queued before any flow timer, later
// arms can land after the timer that completes the flow.
type foreignEvent struct {
	arm, at time.Duration
}

type netProgram struct {
	pools   [2][]float64
	ops     []netOp
	foreign []foreignEvent
}

// genProgram draws pools with random capacities (a few so small that
// their flows stall), then flow starts with random sizes (zero-byte ones
// included), pools (repeats included) and caps below or above the fair
// share, and cancels of random flows and of the flow whose completion is
// armed. Instants are coarse so that events coincide, and some ops come
// in bursts: several starts and cancels on one network at one instant,
// so recomputes run back to back with no time elapsed between them. A
// third of the programs start only uncapped flows, so recompute skips
// its cap scan throughout; the rest mix capped and uncapped flows.
func genProgram(rng *rand.Rand) *netProgram {
	p := &netProgram{}
	for k := range p.pools {
		for i := 1 + rng.Intn(4); i > 0; i-- {
			capacity := float64(1+rng.Intn(8)) * 100
			if rng.Intn(12) == 0 {
				capacity = math.SmallestNonzeroFloat64
			}
			p.pools[k] = append(p.pools[k], capacity)
		}
	}
	uncapped := rng.Intn(3) == 0
	for i := 5 + rng.Intn(40); i > 0; i-- {
		at := time.Duration(rng.Intn(40)) * 250 * time.Millisecond
		net := rng.Intn(2)
		burst := 1
		if rng.Intn(6) == 0 {
			burst = 2 + rng.Intn(5)
		}
		for ; burst > 0; burst-- {
			p.ops = append(p.ops, genOp(rng, len(p.pools[net]), at, net, uncapped))
		}
	}
	return p
}

// genOp draws one op on network net, which has npools pools.
func genOp(rng *rand.Rand, npools int, at time.Duration, net int, uncapped bool) netOp {
	o := netOp{at: at, net: net}
	switch r := rng.Intn(10); {
	case r < 7:
		o.kind = opStart
		o.bytes = float64(rng.Intn(20)) * 100
		for j := rng.Intn(4); j > 0; j-- {
			o.pools = append(o.pools, rng.Intn(npools))
		}
		if uncapped {
			if len(o.pools) == 0 {
				o.pools = append(o.pools, rng.Intn(npools))
			}
			break
		}
		switch rng.Intn(3) {
		case 1:
			o.rateCap = float64(1 + rng.Intn(50))
		case 2:
			o.rateCap = float64(100 + rng.Intn(1000))
		}
		if len(o.pools) == 0 && o.rateCap == 0 {
			o.rateCap = 100
		}
	case r < 9:
		o.kind = opCancel
		o.target = rng.Intn(64)
	default:
		o.kind = opCancelArmed
	}
	return o
}

// runProgram executes p on a fresh clock with two networks, built by mk,
// and returns the log and the instants at which flows completed.
func runProgram(p *netProgram, mk func(*simclock.Clock) flowNet) (log []string, completions []time.Duration) {
	c := simclock.New(simclock.Epoch)
	var nets [2]flowNet
	for k := range nets {
		nets[k] = mk(c)
		for _, capacity := range p.pools[k] {
			nets[k].newPool(capacity)
		}
	}
	note := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("t=%d fired=%d %s rates=%v %v",
			c.Since(simclock.Epoch), c.Fired(), fmt.Sprintf(format, args...), nets[0].rates(), nets[1].rates()))
	}
	for j, fe := range p.foreign {
		at := simclock.Epoch.Add(fe.at)
		fire := func() { note("foreign %d", j) }
		if fe.arm == 0 {
			c.At(at, fire)
		} else {
			c.After(fe.arm, func() { c.At(at, fire) })
		}
	}
	for _, o := range p.ops {
		c.After(o.at, func() {
			a := nets[o.net]
			switch o.kind {
			case opStart:
				var i int
				i = a.start(o.bytes, o.rateCap, o.pools, func() {
					completions = append(completions, c.Since(simclock.Epoch))
					note("done %d/%d", o.net, i)
				})
				note("start %d/%d", o.net, i)
			case opCancel:
				if a.flowCount() > 0 {
					i := o.target % a.flowCount()
					note("cancel %d/%d %v", o.net, i, a.cancel(i))
				}
			case opCancelArmed:
				if i := a.armed(); i >= 0 {
					note("cancel armed %d/%d %v", o.net, i, a.cancel(i))
				}
			}
		})
	}
	c.Run()
	note("end")
	return log, completions
}

func newAdapter(c *simclock.Clock) flowNet    { return &netAdapter{n: New(c)} }
func newRefAdapter(c *simclock.Clock) flowNet { return &refAdapter{n: newRefNetwork(c)} }

// checkAgainstReference runs the program of seed on both
// implementations: once plain, to learn the completion instants, then
// again with foreign events placed at those instants.
func checkAgainstReference(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := genProgram(rng)
	_, completions := runProgram(p, newRefAdapter)
	for _, at := range completions {
		fe := foreignEvent{at: at}
		if rng.Intn(2) == 0 {
			fe.arm = time.Duration(rng.Int63n(int64(at) + 1))
		}
		p.foreign = append(p.foreign, fe)
	}
	want, _ := runProgram(p, newRefAdapter)
	got, _ := runProgram(p, newAdapter)
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i] != want[i] {
			t.Fatalf("seed %d: log entry %d differs\n got: %s\nwant: %s", seed, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("seed %d: log has %d entries, reference %d", seed, len(got), len(want))
	}
}

// TestNetworkMatchesReference is the differential test over a fixed
// range of seeds.
func TestNetworkMatchesReference(t *testing.T) {
	seeds := int64(400)
	if testing.Short() {
		seeds = 50
	}
	for seed := int64(0); seed < seeds; seed++ {
		checkAgainstReference(t, seed)
	}
}

// FuzzNetwork searches program seeds for any divergence from the
// reference.
func FuzzNetwork(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(checkAgainstReference)
}
