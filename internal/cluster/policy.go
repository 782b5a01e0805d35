package cluster

import (
	"fmt"
	"strings"
)

// Policy decides how many shared-pool cores each active job is entitled
// to. entitle sees every queued or running job in ID order, sets the
// targets of the prefix it walks before capacity runs out, and returns
// that prefix's length. Every job demands at least one core, so only that
// prefix gets any; entitle leaves the jobs past it untouched, and the
// scheduler keeps their targets at 0. The scheduler admits a
// queued job once its entitlement reaches one core, grants free cores up
// to the entitlement, and (for policies that shrink a running job's
// entitlement) reclaims the excess by draining executors.
type Policy interface {
	Name() string
	entitle(capacity int, active []*job) int
}

// PolicyByName resolves "fifo" or "fair".
func PolicyByName(name string) (Policy, error) {
	switch strings.ToLower(name) {
	case "fifo":
		return FIFO(), nil
	case "fair":
		return FairShare(), nil
	default:
		return nil, fmt.Errorf("cluster: unknown policy %q (accepted: fifo, fair)", name)
	}
}

// FIFO grants each job its full demand in arrival order until the pool is
// exhausted — the head of the queue can starve everything behind it, the
// baseline the paper's shared-cluster motivation argues against.
func FIFO() Policy { return fifoPolicy{} }

type fifoPolicy struct{}

func (fifoPolicy) Name() string { return "fifo" }

func (fifoPolicy) entitle(capacity int, active []*job) int {
	for i, j := range active {
		if capacity == 0 {
			return i
		}
		j.target = min(j.spec.Cores, capacity)
		capacity -= j.target
	}
	return len(active)
}

// FairShare is integer max-min fairness over cores: capacity is
// water-filled one core at a time round-robin across jobs still below
// their demand, so no job can hold more than its fair share while another
// is starved. Remainder cores go to earlier arrivals, keeping the split
// deterministic.
func FairShare() Policy { return fairPolicy{} }

type fairPolicy struct{}

func (fairPolicy) Name() string { return "fair" }

func (fairPolicy) entitle(capacity int, active []*job) int {
	// The first round hands one core to each job in turn, so only the
	// first capacity jobs get any.
	active = active[:min(capacity, len(active))]
	for _, j := range active {
		j.target = 0
	}
	for capacity > 0 {
		progress := false
		for _, j := range active {
			if capacity == 0 {
				break
			}
			if j.target < j.spec.Cores {
				j.target++
				capacity--
				progress = true
			}
		}
		if !progress {
			break // every demand is met
		}
	}
	return len(active)
}
