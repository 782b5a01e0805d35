package engine

import (
	"time"

	"splitserve/internal/cloud"
	"splitserve/internal/eventlog"
	"splitserve/internal/netsim"
	"splitserve/internal/storage"
)

// Backend is the scheduler-backend seam — the engine's analogue of the
// Spark classes the paper modifies. It supplies executors (from VMs,
// Lambdas, or both), may veto placement on specific executors (the segue
// hook the paper adds to the scheduler: "stop directing additional tasks
// to a long-running Lambda-based executor"), and observes job submission
// (so the segueing facility can launch replacement VMs in the background).
type Backend interface {
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
	// JobSubmitted fires as each action starts, with the job's SLO.
	JobSubmitted(slo time.Duration)
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
	cfg   StandaloneConfig
	c     *Cluster
	fleet Fleet
	slots VMSlots
	// pendingVMCores counts the cores of autoscale VMs still booting.
	pendingVMCores int
}

var _ Backend = (*Standalone)(nil)

// NewStandalone returns the vanilla backend.
func NewStandalone(cfg StandaloneConfig) *Standalone {
	return &Standalone{cfg: cfg}
}

// Start implements Backend.
func (b *Standalone) Start(c *Cluster) {
	b.c = c
	budget := b.cfg.UsableCores
	if budget <= 0 {
		budget = -1
	}
	b.slots.AddBudget(b.cfg.VMs, budget)
	for _, vm := range b.cfg.StandbyVMs {
		b.slots.Add(vm, vm.Type.VCPUs, 0)
	}
	b.fleet.Start(c, "exec", FleetHooks{FreeCore: b.slots.Free})
}

// SetDesiredTotal implements Backend.
func (b *Standalone) SetDesiredTotal(n int) {
	b.fleet.Desired = n
	b.reconcile()
}

// reconcile launches executors on free cores and, when autoscaling,
// requests additional VMs to cover the shortfall.
func (b *Standalone) reconcile() {
	f := &b.fleet
	for f.Live()+f.InFlight() < f.Desired {
		vm := b.slots.Take()
		if vm == nil {
			break
		}
		f.LaunchVM(vm, b.cfg.ExecMemoryMB, b.cfg.StandbyCredits[vm.ID], true)
	}
	if !b.cfg.Autoscale {
		return
	}
	shortfall := f.Desired - f.Live() - f.InFlight() - b.pendingVMCores
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
			b.slots.Add(vm, vm.Type.VCPUs, 0)
			b.c.Emit(eventlog.Event{Type: eventlog.VMReady, Stage: -1, Task: -1, Note: vm.ID})
			b.reconcile()
		})
	}
}

// AllowAssign implements Backend: vanilla Spark places tasks anywhere.
func (b *Standalone) AllowAssign(*Executor) bool { return true }

// ExecutorDrained implements Backend: the standalone backend never drains,
// but honour the contract defensively.
func (b *Standalone) ExecutorDrained(e *Executor) { b.fleet.Remove(e, "drained") }

// ReleaseIdle implements Backend: dynamic allocation killed an idle
// executor. Its host VM (and the shuffle files on it) survive — the
// external-shuffle-service semantics vanilla Spark requires for dynamic
// allocation.
func (b *Standalone) ReleaseIdle(e *Executor) { b.fleet.Remove(e, "idle timeout") }

// JobSubmitted implements Backend.
func (b *Standalone) JobSubmitted(time.Duration) {}
