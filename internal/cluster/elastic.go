package cluster

import (
	"fmt"
	"time"

	"splitserve/internal/cloud"
	"splitserve/internal/eventlog"
)

// This file is the cluster's elasticity layer — the two knobs that open
// the paper's "marginal cost of SLO attainment" axis:
//
//   - Scale-down: autoscale-procured VMs are released back to the
//     provider after a configurable fully-idle timeout, instead of
//     staying in the pool for the rest of the run. Release interacts
//     safely with in-flight leases (the pool refuses to drop an instance
//     holding any) and with the cross-job segue (a re-leased core resets
//     the idle clock).
//   - Deadline-aware admission: an arriving job whose SLO is already
//     unattainable — judged by the fluid model's ETA against the current
//     pool state — is delayed until capacity makes it attainable, or shed
//     outright once even full provisioning could not meet the deadline.

// Admission selects the cluster's admission policy.
type Admission int

// Admission policies.
const (
	// AdmissionGreedy admits a queued job as soon as its entitlement
	// reaches one core (bridge: unconditionally) — the pre-elasticity
	// behavior, and the default.
	AdmissionGreedy Admission = iota + 1
	// AdmissionDeadline admits only jobs the fluid model expects to meet
	// their SLO deadline on the currently attainable cores; others are
	// delayed while still feasible and shed once they are not.
	AdmissionDeadline
)

func (a Admission) String() string {
	switch a {
	case AdmissionGreedy:
		return "greedy"
	case AdmissionDeadline:
		return "deadline"
	default:
		return fmt.Sprintf("Admission(%d)", int(a))
	}
}

// AdmissionByName resolves "greedy" or "deadline".
func AdmissionByName(name string) (Admission, error) {
	switch name {
	case "greedy":
		return AdmissionGreedy, nil
	case "deadline":
		return AdmissionDeadline, nil
	default:
		return 0, fmt.Errorf("cluster: unknown admission policy %q (accepted: greedy, deadline)", name)
	}
}

// fluidETA estimates j's execution time if admitted this instant on the
// given core count, using the same closed forms as the fluid day model
// (internal/autoscale.SimulateDayTrace): proportional slowdown when
// queueing, one boot delay then full speed when autoscaling, the hybrid
// slowdown when bridging. ok is false when the ETA is unbounded (queueing
// with no entitled cores).
func (s *Scheduler) fluidETA(j *job, cores int) (time.Duration, bool) {
	jobSec := j.spec.Baseline.Seconds()
	r := float64(j.spec.Cores)
	switch s.cfg.Strategy {
	case StrategyBridge:
		// The launching facility covers any shortfall with Δ = R − r
		// Lambdas at the calibrated hybrid slowdown.
		return time.Duration(hybridSlowdown * float64(j.spec.Baseline)), true
	case StrategyAutoscale:
		if cores >= j.spec.Cores {
			return j.spec.Baseline, true
		}
		boot := s.cfg.VMBootOverride
		if boot <= 0 {
			boot = s.provider.NominalVMStartup()
		}
		if cores < 1 {
			// Nothing until the procured VMs boot, then full speed.
			return boot + j.spec.Baseline, true
		}
		slowRate := float64(cores) / r
		workDone := boot.Seconds() * slowRate
		if workDone >= jobSec {
			return time.Duration(jobSec / slowRate * float64(time.Second)), true
		}
		return time.Duration((boot.Seconds() + jobSec - workDone) * float64(time.Second)), true
	default: // StrategyQueue
		if cores < 1 {
			return 0, false
		}
		return time.Duration(float64(j.spec.Baseline) * r / float64(cores)), true
	}
}

// considerAdmission is deadline-aware admission for one queued job: shed
// when even full provisioning misses the deadline, admit when the ETA on
// the current entitlement makes it, delay otherwise.
func (s *Scheduler) considerAdmission(j *job) {
	now := s.clock.Now()
	deadline := j.arrivalAt.Add(j.allowance(s.cfg.SLOFactor))
	best, ok := s.fluidETA(j, j.spec.Cores)
	if !ok || now.Add(best).After(deadline) {
		s.shed(j, "slo unattainable")
		return
	}
	if eta, ok := s.fluidETA(j, j.target); ok && !now.Add(eta).After(deadline) {
		s.admit(j)
		return
	}
	s.delay(j)
}

// delay records (once per job) that admission is being held back, and arms
// the feasibility horizon: the instant past which even full provisioning
// misses the deadline, when the job should be shed rather than queue
// forever.
func (s *Scheduler) delay(j *job) {
	if j.delayed {
		return
	}
	j.delayed = true
	s.insts.jobsDelayed.Inc()
	s.emit(eventlog.ClusterDelay, j, func(ev *eventlog.Event) { ev.Cores = j.target })
	if best, ok := s.fluidETA(j, j.spec.Cores); ok {
		deadline := j.arrivalAt.Add(j.allowance(s.cfg.SLOFactor))
		slack := deadline.Sub(s.clock.Now().Add(best))
		s.clock.After(slack+time.Millisecond, func() {
			if j.phase == jobQueued {
				s.kick()
			}
		})
	}
}

// shed rejects a queued job outright; it never runs and holds no cores.
func (s *Scheduler) shed(j *job, reason string) {
	s.setPhase(j, jobShed)
	j.finishedAt = s.clock.Now()
	j.shedReason = reason
	j.spec.Workload = nil
	s.insts.jobsShed.Inc()
	s.emit(eventlog.ClusterShed, j, func(ev *eventlog.Event) {
		ev.Cores = j.spec.Cores
		ev.Note = reason
	})
}

// armScaleDown schedules an idle-timeout check for every procured, fully
// idle pool VM without one pending. The base fleet is never released —
// only autoscale procurements go back to the provider.
func (s *Scheduler) armScaleDown() {
	if s.cfg.ScaleDownIdle <= 0 {
		return
	}
	for _, vm := range s.procured {
		if vm.State != cloud.VMReady || s.scaleCheck[vm.ID] {
			continue
		}
		since, ok := s.pool.IdleSince(vm)
		if !ok {
			continue
		}
		wait := since.Add(s.cfg.ScaleDownIdle).Sub(s.clock.Now())
		if wait < 0 {
			wait = 0
		}
		s.scaleCheck[vm.ID] = true
		vm := vm
		s.clock.After(wait, func() {
			delete(s.scaleCheck, vm.ID)
			s.tryScaleDown(vm)
		})
	}
}

// tryScaleDown releases vm if it has been fully idle for the timeout and
// nothing is waiting for capacity. A VM that went busy in the meantime is
// left alone (the next core release re-arms the check via the scheduling
// pass); one that went idle again later is re-armed for the remainder.
func (s *Scheduler) tryScaleDown(vm *cloud.VM) {
	if vm.State != cloud.VMReady {
		return
	}
	// Hold capacity while anything is queued: releasing under a backlog
	// would trade queue wait (and SLO attainment) for VM-hours.
	if s.inPhase[jobQueued] > 0 {
		return
	}
	since, ok := s.pool.IdleSince(vm)
	if !ok {
		return
	}
	if idle := s.clock.Since(since); idle < s.cfg.ScaleDownIdle {
		s.scaleCheck[vm.ID] = true
		s.clock.After(s.cfg.ScaleDownIdle-idle, func() {
			delete(s.scaleCheck, vm.ID)
			s.tryScaleDown(vm)
		})
		return
	}
	if !s.pool.RemoveVM(vm) {
		return
	}
	s.provider.TerminateVM(vm)
	s.insts.vmsReleased.Inc()
	ev := eventlog.Ev(eventlog.VMReleaseIdle)
	ev.Exec = vm.ID
	ev.Kind = "vm"
	ev.Cores = vm.Type.VCPUs
	ev.Note = vm.Type.Name
	s.bus.Emit(s.clock.Now(), ev)
	s.kick()
}
