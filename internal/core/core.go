// Package core implements SplitServe — the paper's contribution. It is an
// engine.Backend that embodies the three facilities of Section 4:
//
//   - Launching facility: when a job needs R cores and only r are free on
//     existing VMs, the backend takes the r VM cores and immediately
//     launches Δ = R − r Lambda-based executors, so a single job's tasks
//     run on both substrates at once.
//
//   - Segueing facility: if the job's SLO exceeds the nominal VM startup
//     delay, replacement VMs are requested in the background. Once their
//     cores register (or cores free up on existing VMs), Lambda executors
//     that have run longer than spark.lambda.executor.timeout stop
//     receiving tasks, drain gracefully, and are decommissioned — without
//     the execution rollback a hard kill would cause. Lambdas nearing the
//     platform's 15-minute lifetime are always drained pre-emptively.
//
//   - State-transfer facility: the cluster is configured with an HDFS
//     shuffle store reachable by both executor kinds (wired by the
//     scenario; this backend only requires Store().Durable() when Lambdas
//     are in play).
//
// The executor mechanics under these facilities (launch, live and pending
// counts, the Lambda lifetime-margin veto, expiry and release) are
// engine.Fleet, shared with the standalone backend and the cluster layer;
// this package is SplitServe's policy over them.
//
// The same backend with zero free VM cores, an S3 shuffle store and no
// segueing reproduces the Qubole Spark-on-Lambda baseline.
package core

import (
	"fmt"
	"time"

	"splitserve/internal/cloud"
	"splitserve/internal/eventlog"
	"splitserve/internal/spark/engine"
)

// Config parameterises SplitServe.
type Config struct {
	// VMs are existing, ready instances whose free cores the launching
	// facility may use.
	VMs []*cloud.VM
	// FreeCores is r: how many cores of those VMs are actually free for
	// this job. Negative means "all cores".
	FreeCores int
	// LambdaMemoryMB sizes Lambda executors (default 1536 = one vCPU).
	LambdaMemoryMB int
	// LambdaExecutorTimeout is the paper's spark.lambda.executor.timeout
	// knob: a Lambda executor older than this is eligible for segueing.
	LambdaExecutorTimeout time.Duration
	// Segue enables the segueing facility.
	Segue bool
	// SegueVMType is the instance type procured in the background.
	SegueVMType cloud.VMType
	// SegueBootOverride pins when the replacement cores appear (e.g. the
	// paper's Figure 7 has an existing core freeing up at 45 s). Zero
	// samples the provider's boot-delay distribution.
	SegueBootOverride time.Duration
	// LambdaExecLaunchDelay models executor runtime bootstrap inside a
	// Lambda (default engine.LambdaLaunchDelay).
	LambdaExecLaunchDelay time.Duration
	// ExecMemoryMB overrides VM executor memory (0 = hostMem/vCPUs).
	ExecMemoryMB int
}

// DefaultConfig returns a config for a given existing-VM pool and
// free-core budget; New fills in the paper-calibrated defaults.
func DefaultConfig(vms []*cloud.VM, freeCores int) Config {
	return Config{VMs: vms, FreeCores: freeCores}
}

// SplitServe is the hybrid FaaS/IaaS scheduler backend.
type SplitServe struct {
	cfg   Config
	c     *engine.Cluster
	fleet engine.Fleet
	slots engine.VMSlots

	segueRequested bool
	segueCommenced bool
	// seguePendingCores counts requested-but-not-ready segue VM cores.
	seguePendingCores int
}

var _ engine.Backend = (*SplitServe)(nil)

// New returns a SplitServe backend.
func New(cfg Config) *SplitServe {
	if cfg.LambdaMemoryMB == 0 {
		cfg.LambdaMemoryMB = 1536
	}
	if cfg.LambdaExecLaunchDelay == 0 {
		cfg.LambdaExecLaunchDelay = engine.LambdaLaunchDelay
	}
	if cfg.LambdaExecutorTimeout == 0 {
		cfg.LambdaExecutorTimeout = 60 * time.Second
	}
	return &SplitServe{cfg: cfg}
}

// Start implements engine.Backend: it builds the VM/Lambda state from the
// existing cluster ("the launching facility shares access to the
// system-wide VM/Lambda state").
func (b *SplitServe) Start(c *engine.Cluster) {
	b.c = c
	b.slots.AddBudget(b.cfg.VMs, b.cfg.FreeCores)
	b.fleet.Start(c, "exec", engine.FleetHooks{FreeCore: b.slots.Free, Refill: b.reconcile})
}

// SetDesiredTotal implements engine.Backend: VM cores first, Lambdas for
// the shortfall.
func (b *SplitServe) SetDesiredTotal(n int) {
	b.fleet.Desired = n
	b.reconcile()
}

func (b *SplitServe) reconcile() {
	f := &b.fleet
	// 1) Fill free VM cores.
	for f.Live()+f.InFlight() < f.Desired {
		vm := b.slots.Take()
		if vm == nil {
			break
		}
		f.LaunchVM(vm, b.cfg.ExecMemoryMB, nil, true)
	}
	// 2) Bridge the shortfall with Lambdas — unless segueing has commenced,
	// after which VM capacity is the replacement path.
	if b.segueCommenced {
		return
	}
	for f.Live()+f.InFlight() < f.Desired {
		f.LaunchLambda(b.cfg.LambdaMemoryMB, b.cfg.LambdaExecLaunchDelay, nil)
	}
}

// AllowAssign implements engine.Backend — the paper's scheduler hook:
// "every time the scheduler needs to pick an executor ... it checks if
// there are Lambda-based executors ... and how long they have been running
// for"; executors past the threshold stop receiving tasks once replacement
// capacity exists (or their platform lifetime nears its end).
func (b *SplitServe) AllowAssign(e *engine.Executor) bool {
	if !b.fleet.AllowAssign(e) {
		return false
	}
	if b.cfg.Segue && b.segueCommenced && e.Kind == engine.ExecLambda &&
		b.c.Clock().Since(e.RegisteredAt) > b.cfg.LambdaExecutorTimeout {
		b.c.DrainExecutor(e.ID)
		return false
	}
	return true
}

// ExecutorDrained implements engine.Backend: a drained Lambda is released
// back to the platform (graceful decommission); a drained VM executor
// frees its core.
func (b *SplitServe) ExecutorDrained(e *engine.Executor) {
	b.remove(e, "drained")
}

// ReleaseIdle implements engine.Backend (dynamic allocation).
func (b *SplitServe) ReleaseIdle(e *engine.Executor) {
	b.remove(e, "idle timeout")
}

// remove decommissions e and keeps the fleet at the desired size (fresh
// Lambdas replace TTL-drained ones; after a segue the VM capacity already
// covers the target).
func (b *SplitServe) remove(e *engine.Executor, reason string) {
	if b.fleet.Remove(e, reason) {
		b.reconcile()
	}
}

// JobSubmitted implements engine.Backend: the segueing facility launches
// replacement VMs in the background, but "only if the job's expected
// execution time exceeds the nominal VM start-up delay".
func (b *SplitServe) JobSubmitted(slo time.Duration) {
	if !b.cfg.Segue || b.segueRequested {
		return
	}
	needed := b.fleet.Desired - b.slots.Ready()
	if needed <= 0 {
		return
	}
	if slo > 0 && slo <= b.c.Provider().NominalVMStartup() && b.cfg.SegueBootOverride == 0 {
		return // a new VM would arrive after the job's deadline
	}
	b.segueRequested = true
	t := b.cfg.SegueVMType
	if t.VCPUs == 0 {
		t, _ = cloud.SmallestFor(needed)
	}
	b.c.Emit(eventlog.Event{
		Type: eventlog.VMRequest, Stage: -1, Task: -1,
		Note: fmt.Sprintf("segue %s for %d cores", t.Name, needed),
	})
	b.seguePendingCores = needed
	b.c.Provider().RequestVM(t, b.cfg.SegueBootOverride, func(vm *cloud.VM) {
		b.c.Emit(eventlog.Event{Type: eventlog.VMReady, Stage: -1, Task: -1, Note: vm.ID})
		b.onSegueCapacity(vm, b.seguePendingCores)
	})
}

// onSegueCapacity registers the replacement cores and commences segueing:
// replacement executors launch, and once the scheduler next looks at an
// over-threshold Lambda it is drained instead of reused.
func (b *SplitServe) onSegueCapacity(vm *cloud.VM, cores int) {
	capacity := min(cores, vm.Type.VCPUs)
	b.c.Emit(eventlog.Event{Type: eventlog.Segue, Stage: -1, Task: -1, Note: vm.ID})
	b.segueCommenced = true
	// Replacements claim every new core and launch beyond `desired`, so
	// work can move over before the Lambdas finish draining: they must
	// come up even while the Lambdas they replace are still counted live.
	b.slots.Add(vm, capacity, capacity)
	for i := 0; i < capacity; i++ {
		b.fleet.LaunchVM(vm, b.cfg.ExecMemoryMB, nil, false)
	}
	// Lambdas below the age threshold drain when they cross it.
	b.scheduleAgeDrains()
}

// scheduleAgeDrains arms timers so each live Lambda is reconsidered when
// it crosses the age threshold (AllowAssign also checks at every
// scheduling decision; the timers cover idle Lambdas). A Lambda already
// draining needs none: DrainExecutor ignores it.
func (b *SplitServe) scheduleAgeDrains() {
	// Walk executors in registration order: same-instant drain timers fire
	// FIFO, so iteration order shapes the trace and must be deterministic.
	for _, e := range b.c.AllExecutors() {
		if e.Kind != engine.ExecLambda || e.State == engine.ExecDead || e.State == engine.ExecDraining {
			continue
		}
		id := e.ID
		wait := max(b.cfg.LambdaExecutorTimeout-b.c.Clock().Since(e.RegisteredAt), 0)
		b.c.Clock().After(wait, func() { b.c.DrainExecutor(id) })
	}
}

// Lambdas returns every Lambda the backend launched, in launch order, for
// billing. The slice is the backend's own; callers must not modify it.
func (b *SplitServe) Lambdas() []*cloud.Lambda { return b.fleet.Lambdas() }

// Shutdown releases every live Lambda (end of scenario) so billing stops.
// Lambdas are released in registration order so the resulting removal
// events are deterministic.
func (b *SplitServe) Shutdown() {
	for _, e := range b.c.AllExecutors() {
		if e.Kind == engine.ExecLambda {
			b.fleet.Remove(e, "shutdown")
		}
	}
}
