package engine

import (
	"fmt"
	"time"

	"splitserve/internal/cloud"
	"splitserve/internal/eventlog"
	"splitserve/internal/netsim"
	"splitserve/internal/storage"
	"splitserve/internal/telemetry"
)

// Backend is the scheduler-backend seam — the engine's analogue of the
// Spark classes the paper modifies. It supplies executors (from VMs,
// Lambdas, or both), may veto placement on specific executors (the segue
// hook the paper adds to the scheduler: "stop directing additional tasks
// to a long-running Lambda-based executor"), and observes job boundaries
// (so the segueing facility can launch replacement VMs in the background).
type Backend interface {
	// Name identifies the backend ("standalone", "splitserve", ...).
	Name() string
	// Start gives the backend its cluster context. Called once.
	Start(c *Cluster)
	// SetDesiredTotal sets the target number of executors; the backend
	// launches or schedules what it can.
	SetDesiredTotal(n int)
	// AllowAssign is consulted before placing a task on an executor.
	AllowAssign(e *Executor) bool
	// ExecutorDrained fires when a draining executor finished its last
	// task and is idle; the backend decommissions it.
	ExecutorDrained(e *Executor)
	// ReleaseIdle decommissions an idle executor (dynamic allocation).
	ReleaseIdle(e *Executor)
	// JobSubmitted/JobFinished bracket each action.
	JobSubmitted(name string, slo time.Duration)
	JobFinished()
}

// VMExecutorMemoryMB is the default per-executor memory on a VM host: the
// host's memory split across its cores (one executor per core).
func VMExecutorMemoryMB(t cloud.VMType) int {
	return int(t.MemGiB * 1024 / float64(t.VCPUs))
}

// VMExecutorClient builds the I/O path of a VM-hosted executor: disk
// traffic through the host's EBS volume, network traffic through its NIC.
func VMExecutorClient(vm *cloud.VM) storage.Client {
	return storage.Client{
		HostID: vm.ID,
		Disk:   []*netsim.Pool{vm.EBS},
		Net:    []*netsim.Pool{vm.NIC},
	}
}

// LambdaExecutorClient builds the I/O path of a Lambda-hosted executor:
// everything rides the invocation's memory-proportional egress link.
func LambdaExecutorClient(l *cloud.Lambda) storage.Client {
	return storage.Client{
		HostID: l.ID,
		Disk:   []*netsim.Pool{l.Egress},
		Net:    []*netsim.Pool{l.Egress},
	}
}

// StandaloneConfig configures the vanilla VM-only backend.
type StandaloneConfig struct {
	// VMs are the instances available at start (must be Ready).
	VMs []*cloud.VM
	// UsableCores caps how many cores of the existing VMs the application
	// may use (the scenarios' r). 0 means all cores.
	UsableCores int
	// Autoscale lets the backend request more VMs when the desired
	// executor total exceeds capacity (the `Spark r/R autoscale` baseline).
	Autoscale bool
	// ScaleVMType is the instance type requested when autoscaling.
	ScaleVMType cloud.VMType
	// BootOverride pins the boot delay of autoscale VMs (0 = sample).
	BootOverride time.Duration
	// ExecLaunchDelay models executor JVM spin-up and registration.
	ExecLaunchDelay time.Duration
	// ExecMemoryMB overrides per-executor memory (0 = hostMem/vCPUs).
	ExecMemoryMB int
	// StandbyVMs are additional ready instances usable at full capacity
	// regardless of UsableCores — e.g. BurScale-style burstable standbys.
	// StandbyCredits maps a standby VM's ID to its credit gauge (nil entry
	// = not burstable).
	StandbyVMs     []*cloud.VM
	StandbyCredits map[string]*cloud.CreditGauge
}

// Standalone is vanilla Spark's VM-only scheduler backend.
type Standalone struct {
	cfg StandaloneConfig
	c   *Cluster

	slots           []*vmSlot
	desired         int
	launched        int
	pendingLaunches int
	pendingVMCores  int
	execSeq         int
}

type vmSlot struct {
	vm       *cloud.VM
	capacity int
	used     int
}

var _ Backend = (*Standalone)(nil)

// NewStandalone returns the vanilla backend.
func NewStandalone(cfg StandaloneConfig) *Standalone {
	if cfg.ExecLaunchDelay == 0 {
		cfg.ExecLaunchDelay = time.Second
	}
	return &Standalone{cfg: cfg}
}

// Name implements Backend.
func (b *Standalone) Name() string { return "standalone" }

// Start implements Backend.
func (b *Standalone) Start(c *Cluster) {
	b.c = c
	budget := b.cfg.UsableCores
	for _, vm := range b.cfg.VMs {
		capacity := vm.Type.VCPUs
		if b.cfg.UsableCores > 0 {
			if budget <= 0 {
				break
			}
			if capacity > budget {
				capacity = budget
			}
			budget -= capacity
		}
		b.slots = append(b.slots, &vmSlot{vm: vm, capacity: capacity})
	}
	for _, vm := range b.cfg.StandbyVMs {
		b.slots = append(b.slots, &vmSlot{vm: vm, capacity: vm.Type.VCPUs})
	}
}

// SetDesiredTotal implements Backend.
func (b *Standalone) SetDesiredTotal(n int) {
	b.desired = n
	b.reconcile()
}

// reconcile launches executors on free cores and, when autoscaling,
// requests additional VMs to cover the shortfall.
func (b *Standalone) reconcile() {
	for b.launched+b.pendingLaunches < b.desired {
		slot := b.freeSlot()
		if slot == nil {
			break
		}
		b.launchOn(slot)
	}
	if !b.cfg.Autoscale {
		return
	}
	shortfall := b.desired - b.launched - b.pendingLaunches - b.pendingVMCores
	for shortfall > 0 {
		t := b.cfg.ScaleVMType
		if t.VCPUs == 0 {
			t = cloud.M4XLarge
		}
		b.pendingVMCores += t.VCPUs
		shortfall -= t.VCPUs
		b.c.Emit(eventlog.Event{Type: eventlog.VMRequest, Stage: -1, Task: -1, Note: t.Name})
		b.c.Provider().RequestVM(t, b.cfg.BootOverride, func(vm *cloud.VM) {
			b.pendingVMCores -= vm.Type.VCPUs
			b.slots = append(b.slots, &vmSlot{vm: vm, capacity: vm.Type.VCPUs})
			b.c.Emit(eventlog.Event{Type: eventlog.VMReady, Stage: -1, Task: -1, Note: vm.ID})
			b.reconcile()
		})
	}
}

func (b *Standalone) freeSlot() *vmSlot {
	for _, s := range b.slots {
		if s.vm.State == cloud.VMReady && s.used < s.capacity {
			return s
		}
	}
	return nil
}

// launchOn spins up one executor on a VM core after the launch delay.
func (b *Standalone) launchOn(slot *vmSlot) {
	slot.used++
	b.pendingLaunches++
	b.execSeq++
	id := fmt.Sprintf("exec-v%02d", b.execSeq)
	mem := b.cfg.ExecMemoryMB
	if mem == 0 {
		mem = VMExecutorMemoryMB(slot.vm.Type)
	}
	launch := b.c.Telemetry().Tracer().StartSpan("executor", "launch",
		telemetry.L("exec", id), telemetry.L("kind", "vm"))
	b.c.Clock().After(b.cfg.ExecLaunchDelay, func() {
		b.pendingLaunches--
		launch.End()
		if b.launched >= b.desired {
			slot.used-- // demand evaporated while launching
			return
		}
		b.launched++
		cl := VMExecutorClient(slot.vm)
		b.c.RegisterExecutor(ExecutorSpec{
			ID:       id,
			Kind:     ExecVM,
			HostID:   slot.vm.ID,
			MemoryMB: mem,
			CPUShare: 1,
			IO:       cl,
			Serve:    cl,
			VM:       slot.vm,
			Credits:  b.cfg.StandbyCredits[slot.vm.ID],
		})
	})
}

// AllowAssign implements Backend: vanilla Spark places tasks anywhere.
func (b *Standalone) AllowAssign(*Executor) bool { return true }

// ExecutorDrained implements Backend: the standalone backend never drains,
// but honour the contract defensively.
func (b *Standalone) ExecutorDrained(e *Executor) { b.release(e, "drained") }

// ReleaseIdle implements Backend: dynamic allocation killed an idle
// executor. Its host VM (and the shuffle files on it) survive — the
// external-shuffle-service semantics vanilla Spark requires for dynamic
// allocation.
func (b *Standalone) ReleaseIdle(e *Executor) { b.release(e, "idle timeout") }

func (b *Standalone) release(e *Executor, reason string) {
	if e.State == ExecDead {
		return
	}
	b.c.RemoveExecutor(e.ID, false, reason)
	b.launched--
	for _, s := range b.slots {
		if s.vm.ID == e.HostID && s.used > 0 {
			s.used--
			break
		}
	}
}

// JobSubmitted implements Backend.
func (b *Standalone) JobSubmitted(string, time.Duration) {}

// JobFinished implements Backend.
func (b *Standalone) JobFinished() {}

// Launched returns the current live executor count (tests).
func (b *Standalone) Launched() int { return b.launched }
