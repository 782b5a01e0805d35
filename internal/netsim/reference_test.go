package netsim

// A test-only copy of the map-based netsim that armed one completion timer
// per flow and recomputed rates with freshly built maps. It is the
// reference the differential test and FuzzNetwork hold Network to: the
// same program on both must complete the same flows at the same instants
// in the same order, with the same rates and the same number of fired
// events.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"splitserve/internal/simclock"
)

// refNetwork owns pools and active flows and drives rate recomputation on the
// simulation clock.
type refNetwork struct {
	clock   *simclock.Clock
	flows   []*refFlow
	seq     int
	poolSeq int
}

// refPool is a shared bandwidth resource (bytes per second).
type refPool struct {
	id       int
	name     string
	capacity float64
	flows    []*refFlow
}

// refFlow is a transfer of a fixed number of bytes across a set of pools,
// optionally limited by its own rate cap (e.g. a Lambda's memory-
// proportional egress bandwidth).
type refFlow struct {
	id        int
	remaining float64
	rateCap   float64 // 0 means unlimited
	pools     []*refPool
	rate      float64
	settledAt time.Time
	timer     simclock.Timer
	done      func()
	finished  bool
}

// newRefNetwork returns a refNetwork driven by clock.
func newRefNetwork(clock *simclock.Clock) *refNetwork {
	return &refNetwork{clock: clock}
}

// NewPool creates a bandwidth pool. Capacity must be positive.
func (n *refNetwork) NewPool(name string, capacityBytesPerSec float64) *refPool {
	if capacityBytesPerSec <= 0 {
		panic(fmt.Sprintf("netsim: pool %q with non-positive capacity", name))
	}
	n.poolSeq++
	return &refPool{
		id:       n.poolSeq,
		name:     name,
		capacity: capacityBytesPerSec,
	}
}

// StartFlow begins a transfer of bytes across pools, with an optional
// per-flow rate cap (0 = unlimited), calling done when the last byte
// arrives. A flow must traverse at least one pool or carry a positive cap.
// Zero-byte flows complete on the next event-loop tick.
func (n *refNetwork) StartFlow(bytes float64, rateCap float64, pools []*refPool, done func()) *refFlow {
	if bytes < 0 {
		panic("netsim: negative flow size")
	}
	if len(pools) == 0 && rateCap <= 0 {
		panic("netsim: flow with neither pools nor a rate cap would be infinitely fast")
	}
	f := &refFlow{
		id:        n.seq,
		remaining: bytes,
		rateCap:   rateCap,
		pools:     append([]*refPool(nil), pools...),
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
func (n *refNetwork) Cancel(f *refFlow) bool {
	if f == nil || f.finished {
		return false
	}
	n.settleAll()
	n.detach(f)
	n.recompute()
	return true
}

// detach removes a flow from the network and its pools and cancels its
// completion timer.
func (n *refNetwork) detach(f *refFlow) {
	f.finished = true
	f.timer.Cancel()
	n.flows = refRemoveFlow(n.flows, f)
	for _, p := range f.pools {
		p.flows = refRemoveFlow(p.flows, f)
	}
}

func refRemoveFlow(flows []*refFlow, f *refFlow) []*refFlow {
	for i, x := range flows {
		if x == f {
			return append(flows[:i], flows[i+1:]...)
		}
	}
	return flows
}

// settleAll folds elapsed progress into every flow's remaining count so a
// fresh rate assignment can start from "now".
func (n *refNetwork) settleAll() {
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
func (n *refNetwork) recompute() {
	n.settleAll()

	// Progressive filling. Residual capacity per pool; unassigned flows.
	// All iteration is over insertion-ordered slices (pools sorted by
	// creation ID) so rate assignment and event scheduling are fully
	// deterministic.
	residual := make(map[*refPool]float64)
	remainingFlows := make(map[*refPool]int)
	var pools []*refPool
	seenPool := make(map[*refPool]bool)
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

	unassigned := make(map[*refFlow]struct{}, len(n.flows))
	for _, f := range n.flows {
		f.rate = 0
		unassigned[f] = struct{}{}
	}

	assign := func(f *refFlow, rate float64) {
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
func (n *refNetwork) reschedule() {
	for _, f := range n.flows {
		f.timer.Cancel()
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

func (n *refNetwork) completeAt(f *refFlow, d time.Duration) {
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
