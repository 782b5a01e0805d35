package cluster

import (
	"time"

	"splitserve/internal/cloud"
)

// This file is the scheduler's surface for the sharded control plane
// (internal/shard): inspection of the queue and pool, plus the two halves
// of a work-steal — Steal removes a queued job here, Inject re-submits it
// on the destination scheduler. Both run on the drive goroutine between
// clock steps, never concurrently with timer callbacks, so no locking is
// needed beyond what the scheduler already has.

// Pool exposes the scheduler's core pool (shard-level invariant checks
// and free-capacity probes).
func (s *Scheduler) Pool() *cloud.CorePool { return s.pool }

// PoolFree returns how many pool cores are currently unleased.
func (s *Scheduler) PoolFree() int { return s.pool.Free() }

// stealCandidate is the oldest queued job that was not itself stolen in
// (injected jobs never migrate twice — that would let a job ping-pong
// between two saturated shards forever).
func (s *Scheduler) stealCandidate() *job {
	for _, j := range s.queued {
		if !j.injected {
			return j
		}
	}
	return nil
}

// StealableDemand returns the core demand of the job Steal would take,
// or ok=false when nothing here is stealable.
func (s *Scheduler) StealableDemand() (int, bool) {
	if j := s.stealCandidate(); j != nil {
		return j.spec.Cores, true
	}
	return 0, false
}

// Steal removes the oldest queued non-injected job and returns its spec
// and original arrival instant for re-submission elsewhere. The job
// settles locally as migrated: it vanishes from this scheduler's report
// (the destination shard reports it instead) and frees its slot in the
// run-loop's exit test.
func (s *Scheduler) Steal() (JobSpec, time.Time, bool) {
	j := s.stealCandidate()
	if j == nil {
		return JobSpec{}, time.Time{}, false
	}
	s.setPhase(j, jobMigrated)
	j.finishedAt = s.clock.Now()
	spec := j.spec
	j.spec.Workload = nil // the destination runs it now
	s.kick()              // refresh gauges next pass
	return spec, j.arrivalAt, true
}

// Inject re-submits a stolen job on this scheduler at the current
// instant. The job gets a fresh local ID (and this scheduler's IDPrefix)
// but keeps its original arrival time for SLO and queue-wait accounting.
// Returns the job's new app ID for the shard_steal event.
func (s *Scheduler) Inject(spec JobSpec, arrivedAt time.Time) string {
	j := s.addJob(spec)
	j.injected = true
	j.presetArrival = arrivedAt
	s.onArrival(j)
	return j.appID
}
