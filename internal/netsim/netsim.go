// Package netsim models shared bandwidth resources for the SplitServe
// simulator: EBS volumes, VM NICs, Lambda egress links, and the S3 frontend
// are all Pools with a byte/s capacity; transfers are Flows that traverse
// one or more pools.
//
// Active flows share each pool max-min fairly: rates are assigned by
// progressive filling (water-filling), honouring per-flow rate caps, and the
// allocation is recomputed from scratch whenever a flow starts or finishes.
// Every recompute first settles all flows to the current instant, so a
// Network's flows share one settle instant and the progress since it is
// one subtraction per flow. Each filling round visits only the pools that
// still have unassigned flows, and skips the cap scan when no unassigned
// flow has a cap. Each Network keeps one completion timer, armed for the
// flow that finishes first and moved on every recompute, so a rate change
// costs no timer churn.
// This reproduces the paper's central bandwidth story — e.g. a single
// 750 Mbps EBS volume under a colocated master+HDFS node throttling 16
// concurrent shuffle readers — with event-accurate completion times.
package netsim

import (
	"fmt"
	"math"
	"slices"
	"time"

	"splitserve/internal/simclock"
)

// Epsilon below which a flow's remaining bytes count as zero.
const epsilonBytes = 1e-6

// Network owns pools and active flows and drives rate recomputation on the
// simulation clock.
type Network struct {
	clock   *simclock.Clock
	flows   []*Flow
	poolSeq int

	// settledAt is the instant every active flow's remaining count was
	// last brought up to date. Each mutation ends in a recompute, which
	// settles all flows at once, so the flows share this one instant.
	settledAt time.Time

	// pools holds every pool with an active flow, sorted by creation ID;
	// residual and left are recompute's scratch, indexed by Pool.slot.
	// left's second half holds the slots of the pools that still have
	// unassigned flows, in ID order; int32 keeps both halves in the bytes
	// one []int of counts took.
	pools    []*Pool
	residual []float64
	left     []int32

	// timer is the one completion timer, armed for next.
	timer simclock.Timer
	next  *Flow
	fire  func()
}

// Pool is a shared bandwidth resource (bytes per second).
type Pool struct {
	id       int
	slot     int // index into the Network's scratch during recompute
	capacity float64
	flows    []*Flow
}

// Flow is a transfer of a fixed number of bytes across a set of pools,
// optionally limited by its own rate cap (e.g. a Lambda's memory-
// proportional egress bandwidth).
type Flow struct {
	remaining float64
	rateCap   float64 // 0 means unlimited
	pools     []*Pool
	rate      float64
	done      func()
	finished  bool
	pending   bool // not yet assigned a rate by the running recompute
}

// New returns a Network driven by clock.
func New(clock *simclock.Clock) *Network {
	n := &Network{clock: clock}
	n.fire = n.finishNext
	return n
}

// NewPool creates a bandwidth pool. Capacity must be positive; name only
// labels the panic when it is not.
func (n *Network) NewPool(name string, capacityBytesPerSec float64) *Pool {
	if capacityBytesPerSec <= 0 {
		panic(fmt.Sprintf("netsim: pool %q with non-positive capacity", name))
	}
	n.poolSeq++
	return &Pool{id: n.poolSeq, capacity: capacityBytesPerSec}
}

// Capacity returns the pool's capacity in bytes/s.
func (p *Pool) Capacity() float64 { return p.capacity }

func byID(a, b *Pool) int { return a.id - b.id }

// StartFlow begins a transfer of bytes across pools, with an optional
// per-flow rate cap (0 = unlimited), calling done when the last byte
// arrives. A flow must traverse at least one pool or carry a positive cap.
// Zero-byte flows complete on the next event-loop tick.
func (n *Network) StartFlow(bytes float64, rateCap float64, pools []*Pool, done func()) *Flow {
	if bytes < 0 {
		panic("netsim: negative flow size")
	}
	if len(pools) == 0 && rateCap <= 0 {
		panic("netsim: flow with neither pools nor a rate cap would be infinitely fast")
	}
	f := &Flow{
		remaining: bytes,
		rateCap:   rateCap,
		pools:     append([]*Pool(nil), pools...),
		done:      done,
	}
	n.flows = append(n.flows, f)
	for _, p := range f.pools {
		if len(p.flows) == 0 {
			i, _ := slices.BinarySearchFunc(n.pools, p, byID)
			n.pools = slices.Insert(n.pools, i, p)
		}
		p.flows = append(p.flows, f)
	}
	n.recompute()
	return f
}

// Cancel aborts an in-progress flow (e.g. its executor died). The done
// callback is not invoked. It reports whether the flow was still active.
func (n *Network) Cancel(f *Flow) bool {
	if f == nil || f.finished {
		return false
	}
	n.detach(f)
	n.recompute()
	return true
}

// detach removes a flow from the network and its pools. The caller
// recomputes, which re-arms the completion timer.
func (n *Network) detach(f *Flow) {
	f.finished = true
	n.flows = removeFlow(n.flows, f)
	for _, p := range f.pools {
		p.flows = removeFlow(p.flows, f)
		if len(p.flows) == 0 {
			i, _ := slices.BinarySearchFunc(n.pools, p, byID)
			n.pools = slices.Delete(n.pools, i, i+1)
		}
	}
}

func removeFlow(flows []*Flow, f *Flow) []*Flow {
	for i, x := range flows {
		if x == f {
			// slices.Delete zeroes the vacated tail slot, so the backing
			// array keeps no pointer to f (nor to its done callback).
			return slices.Delete(flows, i, i+1)
		}
	}
	return flows
}

// settle folds the progress made since the network's last settle into
// every flow's remaining count so a fresh rate assignment can start from
// "now". A flow started since then has no rate yet and makes no progress.
func (n *Network) settle() {
	now := n.clock.Now()
	elapsed := now.Sub(n.settledAt).Seconds()
	n.settledAt = now
	if elapsed <= 0 {
		return
	}
	for _, f := range n.flows {
		if f.rate > 0 {
			f.remaining = math.Max(0, f.remaining-f.rate*elapsed)
		}
	}
}

// recompute settles progress, runs progressive filling to assign max-min
// fair rates, and re-arms the completion timer.
func (n *Network) recompute() {
	n.settle()

	// Progressive filling. Residual capacity and unassigned-flow count per
	// pool live on reused scratch; unassigned flows are marked pending.
	// open lists the slots of the pools that still have pending flows; each
	// round drops the pools it finds saturated, so later rounds visit only
	// open pools. All iteration is over insertion-ordered flows and pools
	// sorted by creation ID, so rate assignment and event scheduling are
	// fully deterministic.
	np := len(n.pools)
	residual := n.residual[:0]
	n.left = slices.Grow(n.left[:0], 2*np)[:2*np]
	left, open := n.left[:np], n.left[np:]
	for i, p := range n.pools {
		p.slot = i
		residual = append(residual, p.capacity)
		left[i] = int32(len(p.flows))
		open[i] = int32(i)
	}
	n.residual = residual
	capped := 0 // pending flows with a rate cap
	for _, f := range n.flows {
		f.rate, f.pending = 0, true
		if f.rateCap > 0 {
			capped++
		}
	}
	unassigned := len(n.flows)

	assign := func(f *Flow, rate float64) {
		f.rate, f.pending = rate, false
		unassigned--
		if f.rateCap > 0 {
			capped--
		}
		for _, p := range f.pools {
			residual[p.slot] -= rate
			if residual[p.slot] < 0 {
				residual[p.slot] = 0
			}
			left[p.slot]--
		}
	}

	for unassigned > 0 {
		// Fair share at the tightest pool, dropping saturated pools.
		minShare := math.Inf(1)
		k := 0
		for _, i := range open {
			if left[i] > 0 {
				open[k] = i
				k++
				share := residual[i] / float64(left[i])
				if share < minShare {
					minShare = share
				}
			}
		}
		open = open[:k]
		// A flow capped below the fair share takes its cap.
		if capped > 0 {
			minCap := math.Inf(1)
			for _, f := range n.flows {
				if f.pending && f.rateCap > 0 && f.rateCap < minCap {
					minCap = f.rateCap
				}
			}
			if minCap < minShare {
				for _, f := range n.flows {
					if f.pending && f.rateCap > 0 && f.rateCap <= minCap {
						assign(f, f.rateCap)
					}
				}
				continue
			}
		}
		if math.IsInf(minShare, 1) {
			// Only capless, pool-less flows remain (cannot happen given the
			// StartFlow invariant), or caps equal infinity; guard anyway.
			for _, f := range n.flows {
				if f.pending {
					assign(f, math.Max(f.rateCap, 1))
				}
			}
			break
		}
		// Assign flows bottlenecked at a pool whose share equals minShare.
		progressed := false
		for _, i := range open {
			if left[i] == 0 {
				continue
			}
			share := residual[i] / float64(left[i])
			if share <= minShare*(1+1e-12) {
				for _, f := range n.pools[i].flows {
					if !f.pending {
						continue
					}
					rate := share
					if f.rateCap > 0 && f.rateCap < rate {
						rate = f.rateCap
					}
					assign(f, rate)
					progressed = true
				}
			}
		}
		if !progressed {
			// Defensive: should be unreachable; avoid an infinite loop.
			for _, f := range n.flows {
				if f.pending {
					assign(f, minShare)
				}
			}
		}
	}

	n.reschedule()
}

// reschedule arms the completion timer for the flow that finishes first,
// the earliest-started one on a tie. That is the flow whose timer would
// fire first if every flow held one, armed in flow order, so the single
// timer takes the same place among the clock's other events.
func (n *Network) reschedule() {
	n.next = nil
	var first time.Duration
	for _, f := range n.flows {
		var d time.Duration
		if f.remaining > epsilonBytes {
			if f.rate <= 0 {
				continue // stalled; a future recompute will revive it
			}
			d = max(time.Duration(f.remaining/f.rate*float64(time.Second)), 0)
		}
		if n.next == nil || d < first {
			n.next, first = f, d
		}
	}
	if n.next == nil {
		n.timer.Cancel()
	} else if !n.timer.Reschedule(first) {
		n.timer = n.clock.After(first, n.fire)
	}
}

// finishNext is the completion timer's callback: the armed flow's last
// byte has arrived.
func (n *Network) finishNext() {
	f := n.next
	f.remaining = 0
	n.detach(f)
	n.recompute()
	if f.done != nil {
		f.done()
	}
}

// Mbps converts megabits/s to bytes/s.
func Mbps(v float64) float64 { return v * 1e6 / 8 }
