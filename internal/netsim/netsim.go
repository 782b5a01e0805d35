// Package netsim models shared bandwidth resources for the SplitServe
// simulator: EBS volumes, VM NICs, Lambda egress links, and the S3 frontend
// are all Pools with a byte/s capacity; transfers are Flows that traverse
// one or more pools.
//
// Active flows share each pool max-min fairly: rates are assigned by
// progressive filling (water-filling), honouring per-flow rate caps, and the
// allocation is recomputed from scratch whenever a flow starts or finishes.
// This reproduces the paper's central bandwidth story — e.g. a single
// 750 Mbps EBS volume under a colocated master+HDFS node throttling 16
// concurrent shuffle readers — with event-accurate completion times.
package netsim

import (
	"fmt"
	"math"
	"sort"
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
	seq     int
	poolSeq int
}

// Pool is a shared bandwidth resource (bytes per second).
type Pool struct {
	id       int
	name     string
	capacity float64
	flows    []*Flow
}

// Flow is a transfer of a fixed number of bytes across a set of pools,
// optionally limited by its own rate cap (e.g. a Lambda's memory-
// proportional egress bandwidth).
type Flow struct {
	id        int
	remaining float64
	rateCap   float64 // 0 means unlimited
	pools     []*Pool
	rate      float64
	settledAt time.Time
	timer     *simclock.Timer
	done      func()
	finished  bool
}

// New returns a Network driven by clock.
func New(clock *simclock.Clock) *Network {
	return &Network{clock: clock}
}

// NewPool creates a bandwidth pool. Capacity must be positive.
func (n *Network) NewPool(name string, capacityBytesPerSec float64) *Pool {
	if capacityBytesPerSec <= 0 {
		panic(fmt.Sprintf("netsim: pool %q with non-positive capacity", name))
	}
	n.poolSeq++
	return &Pool{
		id:       n.poolSeq,
		name:     name,
		capacity: capacityBytesPerSec,
	}
}

// Name returns the pool's name.
func (p *Pool) Name() string { return p.name }

// Capacity returns the pool's capacity in bytes/s.
func (p *Pool) Capacity() float64 { return p.capacity }

// ActiveFlows returns the number of flows currently traversing the pool.
func (p *Pool) ActiveFlows() int { return len(p.flows) }

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
		id:        n.seq,
		remaining: bytes,
		rateCap:   rateCap,
		pools:     append([]*Pool(nil), pools...),
		settledAt: n.clock.Now(),
		done:      done,
	}
	n.seq++
	n.flows = append(n.flows, f)
	for _, p := range f.pools {
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
	n.settleAll()
	n.detach(f)
	n.recompute()
	return true
}

// Remaining returns the flow's unfinished byte count as of the current
// virtual time.
func (n *Network) Remaining(f *Flow) float64 {
	if f.finished {
		return 0
	}
	elapsed := n.clock.Since(f.settledAt).Seconds()
	return math.Max(0, f.remaining-f.rate*elapsed)
}

// ActiveFlows returns the number of in-flight flows network-wide.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// detach removes a flow from the network and its pools and cancels its
// completion timer.
func (n *Network) detach(f *Flow) {
	f.finished = true
	if f.timer != nil {
		f.timer.Cancel()
		f.timer = nil
	}
	n.flows = removeFlow(n.flows, f)
	for _, p := range f.pools {
		p.flows = removeFlow(p.flows, f)
	}
}

func removeFlow(flows []*Flow, f *Flow) []*Flow {
	for i, x := range flows {
		if x == f {
			return append(flows[:i], flows[i+1:]...)
		}
	}
	return flows
}

// settleAll folds elapsed progress into every flow's remaining count so a
// fresh rate assignment can start from "now".
func (n *Network) settleAll() {
	now := n.clock.Now()
	for _, f := range n.flows {
		elapsed := now.Sub(f.settledAt).Seconds()
		if elapsed > 0 && f.rate > 0 {
			f.remaining = math.Max(0, f.remaining-f.rate*elapsed)
		}
		f.settledAt = now
	}
}

// recompute settles progress, runs progressive filling to assign max-min
// fair rates, and reschedules completion events.
func (n *Network) recompute() {
	n.settleAll()

	// Progressive filling. Residual capacity per pool; unassigned flows.
	// All iteration is over insertion-ordered slices (pools sorted by
	// creation ID) so rate assignment and event scheduling are fully
	// deterministic.
	residual := make(map[*Pool]float64)
	remainingFlows := make(map[*Pool]int)
	var pools []*Pool
	seenPool := make(map[*Pool]bool)
	for _, f := range n.flows {
		for _, p := range f.pools {
			if !seenPool[p] {
				seenPool[p] = true
				pools = append(pools, p)
			}
		}
	}
	sort.Slice(pools, func(i, j int) bool { return pools[i].id < pools[j].id })
	for _, p := range pools {
		residual[p] = p.capacity
		remainingFlows[p] = len(p.flows)
	}

	unassigned := make(map[*Flow]struct{}, len(n.flows))
	for _, f := range n.flows {
		f.rate = 0
		unassigned[f] = struct{}{}
	}

	assign := func(f *Flow, rate float64) {
		f.rate = rate
		delete(unassigned, f)
		for _, p := range f.pools {
			residual[p] -= rate
			if residual[p] < 0 {
				residual[p] = 0
			}
			remainingFlows[p]--
		}
	}

	for len(unassigned) > 0 {
		// Fair share at the tightest pool.
		minShare := math.Inf(1)
		for _, p := range pools {
			if remainingFlows[p] > 0 {
				share := residual[p] / float64(remainingFlows[p])
				if share < minShare {
					minShare = share
				}
			}
		}
		// A flow capped below the fair share takes its cap.
		minCap := math.Inf(1)
		for f := range unassigned {
			if f.rateCap > 0 && f.rateCap < minCap {
				minCap = f.rateCap
			}
		}
		if minCap < minShare {
			for _, f := range n.flows {
				if _, ok := unassigned[f]; ok && f.rateCap > 0 && f.rateCap <= minCap {
					assign(f, f.rateCap)
				}
			}
			continue
		}
		if math.IsInf(minShare, 1) {
			// Only capless, pool-less flows remain (cannot happen given the
			// StartFlow invariant), or caps equal infinity; guard anyway.
			for _, f := range n.flows {
				if _, ok := unassigned[f]; ok {
					assign(f, math.Max(f.rateCap, 1))
				}
			}
			break
		}
		// Assign flows bottlenecked at a pool whose share equals minShare.
		progressed := false
		for _, p := range pools {
			if remainingFlows[p] == 0 {
				continue
			}
			share := residual[p] / float64(remainingFlows[p])
			if share <= minShare*(1+1e-12) {
				for _, f := range p.flows {
					if _, ok := unassigned[f]; !ok {
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
				if _, ok := unassigned[f]; ok {
					assign(f, minShare)
				}
			}
		}
	}

	n.reschedule()
}

// reschedule replaces every flow's completion timer according to its new
// rate.
func (n *Network) reschedule() {
	for _, f := range n.flows {
		if f.timer != nil {
			f.timer.Cancel()
			f.timer = nil
		}
		if f.remaining <= epsilonBytes {
			n.completeAt(f, 0)
			continue
		}
		if f.rate <= 0 {
			continue // stalled; a future recompute will revive it
		}
		n.completeAt(f, time.Duration(f.remaining/f.rate*float64(time.Second)))
	}
}

func (n *Network) completeAt(f *Flow, d time.Duration) {
	f.timer = n.clock.After(d, func() {
		if f.finished {
			return
		}
		n.settleAll()
		f.remaining = 0
		n.detach(f)
		n.recompute()
		if f.done != nil {
			f.done()
		}
	})
}

// TransferTime is a convenience estimate: the time a transfer of bytes
// would take alone at the given bandwidth. Useful for fixed-cost phases
// that do not contend (e.g. local memory copies).
func TransferTime(bytes, bytesPerSec float64) time.Duration {
	if bytesPerSec <= 0 {
		panic("netsim: non-positive bandwidth")
	}
	return time.Duration(bytes / bytesPerSec * float64(time.Second))
}

// Mbps converts megabits/s to bytes/s.
func Mbps(v float64) float64 { return v * 1e6 / 8 }
