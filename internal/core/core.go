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
// The same backend with zero free VM cores, an S3 shuffle store and no
// segueing reproduces the Qubole Spark-on-Lambda baseline.
package core

import (
	"fmt"
	"time"

	"splitserve/internal/cloud"
	"splitserve/internal/eventlog"
	"splitserve/internal/spark/engine"
	"splitserve/internal/telemetry"
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
	// MaxLambdas caps concurrent Lambda executors.
	MaxLambdas int
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
	// VMExecLaunchDelay and LambdaExecLaunchDelay model executor runtime
	// bootstrap on each substrate.
	VMExecLaunchDelay     time.Duration
	LambdaExecLaunchDelay time.Duration
	// TTLSafetyMargin drains a Lambda executor whose remaining platform
	// lifetime falls below this, avoiding the expiry-induced rollback.
	TTLSafetyMargin time.Duration
	// LambdaCPUFactor derates a Lambda executor's CPU relative to an EC2
	// vCPU (Firecracker scheduling and burstable shares; ~0.85 observed).
	LambdaCPUFactor float64
	// ExecMemoryMB overrides VM executor memory (0 = hostMem/vCPUs).
	ExecMemoryMB int
}

// DefaultConfig returns paper-calibrated defaults for a given existing-VM
// pool and free-core budget.
func DefaultConfig(vms []*cloud.VM, freeCores int) Config {
	return Config{
		VMs:                   vms,
		FreeCores:             freeCores,
		LambdaMemoryMB:        1536,
		MaxLambdas:            1000,
		LambdaExecutorTimeout: 60 * time.Second,
		VMExecLaunchDelay:     time.Second,
		LambdaExecLaunchDelay: 1500 * time.Millisecond,
		TTLSafetyMargin:       60 * time.Second,
	}
}

// SplitServe is the hybrid FaaS/IaaS scheduler backend.
type SplitServe struct {
	cfg Config
	c   *engine.Cluster

	slots   []*vmSlot
	desired int
	// launched counts live executors; pending* count in-flight launches.
	vmLaunched     int
	lambdaLaunched int
	pendingVM      int
	pendingLambda  int
	execSeq        int

	lambdaByExec map[string]*cloud.Lambda

	segueRequested bool
	segueCommenced bool
	// seguePendingCores counts requested-but-not-ready segue VM cores.
	seguePendingCores int
	drainTimers       map[string]bool
}

type vmSlot struct {
	vm       *cloud.VM
	capacity int
	used     int
}

var _ engine.Backend = (*SplitServe)(nil)

// New returns a SplitServe backend.
func New(cfg Config) *SplitServe {
	if cfg.LambdaMemoryMB == 0 {
		cfg.LambdaMemoryMB = 1536
	}
	if cfg.MaxLambdas == 0 {
		cfg.MaxLambdas = 1000
	}
	if cfg.VMExecLaunchDelay == 0 {
		cfg.VMExecLaunchDelay = time.Second
	}
	if cfg.LambdaExecLaunchDelay == 0 {
		cfg.LambdaExecLaunchDelay = 1500 * time.Millisecond
	}
	if cfg.TTLSafetyMargin == 0 {
		cfg.TTLSafetyMargin = 60 * time.Second
	}
	if cfg.LambdaExecutorTimeout == 0 {
		cfg.LambdaExecutorTimeout = 60 * time.Second
	}
	if cfg.LambdaCPUFactor == 0 {
		cfg.LambdaCPUFactor = 0.85
	}
	return &SplitServe{
		cfg:          cfg,
		lambdaByExec: make(map[string]*cloud.Lambda),
		drainTimers:  make(map[string]bool),
	}
}

// Name implements engine.Backend.
func (b *SplitServe) Name() string { return "splitserve" }

// Start implements engine.Backend: it builds the VM/Lambda state from the
// existing cluster ("the launching facility shares access to the
// system-wide VM/Lambda state").
func (b *SplitServe) Start(c *engine.Cluster) {
	b.c = c
	budget := b.cfg.FreeCores
	for _, vm := range b.cfg.VMs {
		capacity := vm.Type.VCPUs
		if budget >= 0 {
			if budget == 0 {
				break
			}
			if capacity > budget {
				capacity = budget
			}
			budget -= capacity
		}
		b.slots = append(b.slots, &vmSlot{vm: vm, capacity: capacity})
	}
}

// SetDesiredTotal implements engine.Backend: VM cores first, Lambdas for
// the shortfall.
func (b *SplitServe) SetDesiredTotal(n int) {
	b.desired = n
	b.reconcile()
}

func (b *SplitServe) live() int { return b.vmLaunched + b.lambdaLaunched }

func (b *SplitServe) inFlight() int { return b.pendingVM + b.pendingLambda }

func (b *SplitServe) reconcile() {
	// 1) Fill free VM cores.
	for b.live()+b.inFlight() < b.desired {
		slot := b.freeSlot()
		if slot == nil {
			break
		}
		b.launchVMExecutor(slot, false)
	}
	// 2) Bridge the shortfall with Lambdas — unless segueing has commenced,
	// after which VM capacity is the replacement path.
	if b.segueCommenced {
		return
	}
	for b.live()+b.inFlight() < b.desired && b.lambdaLaunched+b.pendingLambda < b.cfg.MaxLambdas {
		b.launchLambdaExecutor()
	}
}

func (b *SplitServe) freeSlot() *vmSlot {
	for _, s := range b.slots {
		if s.vm.State == cloud.VMReady && s.used < s.capacity {
			return s
		}
	}
	return nil
}

// launchVMExecutor starts one executor on a core of slot. force skips the
// demand re-check at registration time — segue replacements must come up
// even while the Lambdas they replace are still counted live.
func (b *SplitServe) launchVMExecutor(slot *vmSlot, force bool) {
	slot.used++
	b.pendingVM++
	b.execSeq++
	id := fmt.Sprintf("exec-v%02d", b.execSeq)
	mem := b.cfg.ExecMemoryMB
	if mem == 0 {
		mem = engine.VMExecutorMemoryMB(slot.vm.Type)
	}
	launch := b.c.Telemetry().Tracer().StartSpan("executor", "launch",
		telemetry.L("exec", id), telemetry.L("kind", "vm"))
	b.c.Clock().After(b.cfg.VMExecLaunchDelay, func() {
		b.pendingVM--
		launch.End()
		if !force && b.live() >= b.desired {
			slot.used--
			return
		}
		b.vmLaunched++
		cl := engine.VMExecutorClient(slot.vm)
		b.c.RegisterExecutor(engine.ExecutorSpec{
			ID:       id,
			Kind:     engine.ExecVM,
			HostID:   slot.vm.ID,
			MemoryMB: mem,
			CPUShare: 1,
			IO:       cl,
			Serve:    cl,
			VM:       slot.vm,
		})
	})
}

func (b *SplitServe) launchLambdaExecutor() {
	b.pendingLambda++
	b.execSeq++
	id := fmt.Sprintf("exec-l%02d", b.execSeq)
	cfg := cloud.LambdaConfig{MemoryMB: b.cfg.LambdaMemoryMB}
	launch := b.c.Telemetry().Tracer().StartSpan("executor", "launch",
		telemetry.L("exec", id), telemetry.L("kind", "lambda"))
	_, err := b.c.Provider().Invoke(cfg,
		func(l *cloud.Lambda) {
			// Environment is up; the executor runtime bootstraps next.
			b.c.Clock().After(b.cfg.LambdaExecLaunchDelay, func() {
				b.pendingLambda--
				launch.End()
				if b.live() >= b.desired {
					b.c.Provider().Release(l)
					return
				}
				b.lambdaLaunched++
				b.lambdaByExec[id] = l
				cl := engine.LambdaExecutorClient(l)
				b.c.RegisterExecutor(engine.ExecutorSpec{
					ID:       id,
					Kind:     engine.ExecLambda,
					HostID:   l.ID,
					MemoryMB: b.cfg.LambdaMemoryMB,
					CPUShare: cfg.CPUShare(b.c.Provider().Limits()) * b.cfg.LambdaCPUFactor,
					IO:       engine.LambdaExecutorClient(l),
					Serve:    cl,
					Lambda:   l,
				})
			})
		},
		func(l *cloud.Lambda) {
			// Platform lifetime expiry: the executor dies hard, shuffle
			// blocks in /tmp die with it — the rollback the segueing
			// facility exists to avoid.
			b.onLambdaExpired(id)
		})
	if err != nil {
		b.pendingLambda--
		panic("core: lambda invoke rejected: " + err.Error())
	}
}

func (b *SplitServe) onLambdaExpired(execID string) {
	if e := b.c.Executor(execID); e != nil && e.State != engine.ExecDead {
		b.lambdaLaunched--
		delete(b.lambdaByExec, execID)
		b.c.RemoveExecutor(execID, true, "lambda lifetime expired")
		b.reconcile() // bridge the hole
	}
}

// AllowAssign implements engine.Backend — the paper's scheduler hook:
// "every time the scheduler needs to pick an executor ... it checks if
// there are Lambda-based executors ... and how long they have been running
// for"; executors past the threshold stop receiving tasks once replacement
// capacity exists (or their platform lifetime nears its end).
func (b *SplitServe) AllowAssign(e *engine.Executor) bool {
	if e.Kind != engine.ExecLambda {
		return true
	}
	l := b.lambdaByExec[e.ID]
	if l == nil {
		return true
	}
	if b.c.Provider().TimeToLive(l) < b.cfg.TTLSafetyMargin {
		b.drain(e, "lifetime safety margin")
		return false
	}
	if b.cfg.Segue && b.segueCommenced &&
		b.c.Clock().Since(e.RegisteredAt) > b.cfg.LambdaExecutorTimeout {
		b.drain(e, "segue")
		return false
	}
	return true
}

func (b *SplitServe) drain(e *engine.Executor, reason string) {
	if b.drainTimers[e.ID] {
		return
	}
	b.drainTimers[e.ID] = true
	_ = reason
	b.c.DrainExecutor(e.ID)
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

func (b *SplitServe) remove(e *engine.Executor, reason string) {
	if e.State == engine.ExecDead {
		return
	}
	switch e.Kind {
	case engine.ExecLambda:
		if l := b.lambdaByExec[e.ID]; l != nil {
			b.c.Provider().Release(l)
			delete(b.lambdaByExec, e.ID)
		}
		b.lambdaLaunched--
		// The Lambda's /tmp dies with it; with the durable HDFS store this
		// loses nothing.
		b.c.RemoveExecutor(e.ID, true, reason)
	case engine.ExecVM:
		b.vmLaunched--
		for _, s := range b.slots {
			if s.vm.ID == e.HostID && s.used > 0 {
				s.used--
				break
			}
		}
		b.c.RemoveExecutor(e.ID, false, reason)
	}
	// Keep the fleet at the desired size (fresh Lambdas replace TTL-drained
	// ones; after a segue the VM capacity already covers the target).
	b.reconcile()
}

// JobSubmitted implements engine.Backend: the segueing facility launches
// replacement VMs in the background, but "only if the job's expected
// execution time exceeds the nominal VM start-up delay".
func (b *SplitServe) JobSubmitted(_ string, slo time.Duration) {
	if !b.cfg.Segue || b.segueRequested {
		return
	}
	needed := b.desired - b.usableVMCores()
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

// usableVMCores sums capacity across known slots.
func (b *SplitServe) usableVMCores() int {
	total := 0
	for _, s := range b.slots {
		if s.vm.State == cloud.VMReady {
			total += s.capacity
		}
	}
	return total
}

// onSegueCapacity registers the replacement cores and commences segueing:
// replacement executors launch, and once the scheduler next looks at an
// over-threshold Lambda it is drained instead of reused.
func (b *SplitServe) onSegueCapacity(vm *cloud.VM, cores int) {
	capacity := cores
	if capacity > vm.Type.VCPUs {
		capacity = vm.Type.VCPUs
	}
	slot := &vmSlot{vm: vm, capacity: capacity}
	b.slots = append(b.slots, slot)
	b.c.Emit(eventlog.Event{Type: eventlog.Segue, Stage: -1, Task: -1, Note: vm.ID})
	b.segueCommenced = true
	// Launch replacements beyond `desired` so work can move over before
	// the Lambdas finish draining.
	for i := 0; i < capacity; i++ {
		b.launchVMExecutor(slot, true)
	}
	// Lambdas below the age threshold drain when they cross it.
	b.scheduleAgeDrains()
}

// scheduleAgeDrains arms timers so each live Lambda is reconsidered when
// it crosses the age threshold (AllowAssign also checks at every
// scheduling decision; the timers cover idle Lambdas).
func (b *SplitServe) scheduleAgeDrains() {
	// Walk executors in registration order, not map order: same-instant
	// drain timers fire FIFO, so iteration order shapes the trace and must
	// be deterministic.
	for _, e := range b.c.AllExecutors() {
		id := e.ID
		if b.lambdaByExec[id] == nil {
			continue
		}
		if e.State == engine.ExecDead || b.drainTimers[id] {
			continue
		}
		age := b.c.Clock().Since(e.RegisteredAt)
		wait := b.cfg.LambdaExecutorTimeout - age
		if wait < 0 {
			wait = 0
		}
		b.c.Clock().After(wait, func() {
			ex := b.c.Executor(id)
			if ex == nil || ex.State == engine.ExecDead {
				return
			}
			b.drain(ex, "segue age threshold")
		})
	}
}

// JobFinished implements engine.Backend.
func (b *SplitServe) JobFinished() {}

// Shutdown releases every live Lambda (end of scenario) so billing stops.
// Lambdas are released in registration order so the resulting removal
// events are deterministic.
func (b *SplitServe) Shutdown() {
	for _, e := range b.c.AllExecutors() {
		l := b.lambdaByExec[e.ID]
		if l == nil {
			continue
		}
		b.c.Provider().Release(l)
		if e.State != engine.ExecDead {
			b.c.RemoveExecutor(e.ID, true, "shutdown")
		}
	}
	b.lambdaByExec = make(map[string]*cloud.Lambda)
	b.lambdaLaunched = 0
}

// Stats reports the current executor mix (inspection).
func (b *SplitServe) Stats() (vmExecs, lambdaExecs int) {
	return b.vmLaunched, b.lambdaLaunched
}
