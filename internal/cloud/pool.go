package cloud

import (
	"fmt"
	"time"

	"splitserve/internal/eventlog"
	"splitserve/internal/telemetry"
)

// CorePool arbitrates the cores of a shared VM fleet across concurrent
// jobs — the system-wide "r" of the paper's launching facility (Section
// 4.1): when a job needs R cores, the pool hands out however many are
// free and the caller bridges the shortfall Δ = R − r with Lambdas.
//
// The pool tracks cores, not executors: a CoreLease is the right to run
// one executor on one core of one VM. Leases are granted VM-by-VM in the
// order instances were added, so allocation is deterministic and tends to
// pack jobs onto few instances (which keeps shuffle traffic local).
type CorePool struct {
	vms []*pooledVM

	coresTotal *telemetry.Gauge
	coresInUse *telemetry.Gauge
	bus        *eventlog.Bus
	busNow     func() time.Time
	now        func() time.Time
}

// SetEventLog attaches an event-log bus; each Acquire emits one core_lease
// event (Cores = granted count, App = owner) and each lease Release a
// core_release, stamped with now() on the virtual clock. The clock also
// drives idle tracking (see SetClock).
func (p *CorePool) SetEventLog(bus *eventlog.Bus, now func() time.Time) {
	p.bus = bus
	p.busNow = now
	if p.now == nil {
		p.SetClock(now)
	}
}

// SetClock attaches a virtual-time source so the pool can track, per VM,
// how long the instance has been fully idle (no leased cores) — the input
// to the scheduler's idle-timeout scale-down. Without a clock, IdleSince
// reports nothing and scale-down is inert.
func (p *CorePool) SetClock(now func() time.Time) {
	p.now = now
	if now == nil {
		return
	}
	for _, e := range p.vms {
		if e.used == 0 && e.idleSince.IsZero() {
			e.idleSince = now()
		}
	}
}

type pooledVM struct {
	vm   *VM
	used int
	// idleSince is when the instance last became fully idle (used == 0);
	// zero while any core is leased or when the pool has no clock.
	idleSince time.Time
}

// CoreLease is a claim on one core of one pool VM. Release returns the
// core; releasing twice is a no-op.
type CoreLease struct {
	pool     *CorePool
	entry    *pooledVM
	owner    string
	released bool
}

// VM returns the instance hosting the leased core.
func (l *CoreLease) VM() *VM { return l.entry.vm }

// Release returns the core to the pool (idempotent).
func (l *CoreLease) Release() {
	if l.released {
		return
	}
	l.released = true
	l.entry.used--
	l.pool.coresInUse.Dec()
	if l.entry.used == 0 && l.pool.now != nil {
		l.entry.idleSince = l.pool.now()
	}
	if p := l.pool; p.bus != nil {
		ev := eventlog.Ev(eventlog.CoreRelease)
		ev.App = l.owner
		ev.Exec = l.entry.vm.ID
		ev.Cores = 1
		p.bus.Emit(p.busNow(), ev)
	}
}

// NewCorePool returns a pool over the given ready instances.
func NewCorePool(vms ...*VM) *CorePool {
	p := &CorePool{}
	for _, vm := range vms {
		p.AddVM(vm)
	}
	return p
}

// SetTelemetry mirrors pool occupancy into vmpool_cores and
// vmpool_cores_in_use gauges on hub.
func (p *CorePool) SetTelemetry(h *telemetry.Hub) {
	p.coresTotal = h.Gauge("vmpool_cores")
	p.coresInUse = h.Gauge("vmpool_cores_in_use")
	p.coresTotal.Set(float64(p.Capacity()))
	p.coresInUse.Set(float64(p.InUse()))
}

// AddVM grows the pool with a (ready) instance — pre-provisioned fleet at
// start, or autoscale procurements as they boot.
func (p *CorePool) AddVM(vm *VM) {
	e := &pooledVM{vm: vm}
	if p.now != nil {
		e.idleSince = p.now()
	}
	p.vms = append(p.vms, e)
	p.coresTotal.Add(float64(vm.Type.VCPUs))
}

// RemoveVM takes a fully idle instance out of the pool (the scale-down
// path). It refuses — returning false — while any core of the instance is
// leased, so in-flight leases can never be orphaned; the caller decides
// what to do with the instance afterwards (typically terminate it).
func (p *CorePool) RemoveVM(vm *VM) bool {
	for i, e := range p.vms {
		if e.vm != vm {
			continue
		}
		if e.used > 0 {
			return false
		}
		p.vms = append(p.vms[:i], p.vms[i+1:]...)
		if e.vm.State == VMReady {
			p.coresTotal.Add(-float64(vm.Type.VCPUs))
		}
		return true
	}
	return false
}

// UsedOn returns how many cores of vm are currently leased (0 if the
// instance is not pooled).
func (p *CorePool) UsedOn(vm *VM) int {
	for _, e := range p.vms {
		if e.vm == vm {
			return e.used
		}
	}
	return 0
}

// IdleSince reports when vm last became fully idle. ok is false while any
// core is leased, when the instance is not pooled, or when the pool has no
// clock (SetClock / SetEventLog never called).
func (p *CorePool) IdleSince(vm *VM) (time.Time, bool) {
	for _, e := range p.vms {
		if e.vm == vm {
			if e.used > 0 || e.idleSince.IsZero() {
				return time.Time{}, false
			}
			return e.idleSince, true
		}
	}
	return time.Time{}, false
}

// CheckInvariants verifies the pool's conservation laws: every per-VM
// lease count sits in [0, VCPUs], only ready instances hold leases, and
// free + leased cores equal capacity. Property tests call it at every
// event of a run; any violation is a scheduler bug, not a workload
// condition.
func (p *CorePool) CheckInvariants() error {
	for _, e := range p.vms {
		if e.used < 0 || e.used > e.vm.Type.VCPUs {
			return fmt.Errorf("cloud: pool VM %s has %d leased cores of %d",
				e.vm.ID, e.used, e.vm.Type.VCPUs)
		}
		if e.used > 0 && e.vm.State != VMReady {
			return fmt.Errorf("cloud: pool VM %s is %s but holds %d leases",
				e.vm.ID, e.vm.State, e.used)
		}
	}
	if free, used, cap := p.Free(), p.InUse(), p.Capacity(); free+used != cap || free < 0 {
		return fmt.Errorf("cloud: pool free %d + leased %d != capacity %d", free, used, cap)
	}
	return nil
}

// VMs returns the pooled instances in the order they were added.
func (p *CorePool) VMs() []*VM {
	out := make([]*VM, 0, len(p.vms))
	for _, e := range p.vms {
		out = append(out, e.vm)
	}
	return out
}

// Capacity is the total core count across ready pool instances.
func (p *CorePool) Capacity() int {
	total := 0
	for _, e := range p.vms {
		if e.vm.State == VMReady {
			total += e.vm.Type.VCPUs
		}
	}
	return total
}

// InUse is how many cores are currently leased.
func (p *CorePool) InUse() int {
	used := 0
	for _, e := range p.vms {
		used += e.used
	}
	return used
}

// Free is how many cores a caller could acquire right now.
func (p *CorePool) Free() int { return p.Capacity() - p.InUse() }

// Acquire leases up to n cores for owner, fewest-index VMs first. It
// returns what is available — possibly fewer than n, possibly none.
func (p *CorePool) Acquire(owner string, n int) []*CoreLease {
	if n <= 0 {
		return nil
	}
	var out []*CoreLease
	for _, e := range p.vms {
		if e.vm.State != VMReady {
			continue
		}
		for e.used < e.vm.Type.VCPUs && len(out) < n {
			e.used++
			e.idleSince = time.Time{}
			p.coresInUse.Inc()
			out = append(out, &CoreLease{pool: p, entry: e, owner: owner})
		}
		if len(out) == n {
			break
		}
	}
	if p.bus != nil && len(out) > 0 {
		ev := eventlog.Ev(eventlog.CoreLease)
		ev.App = owner
		ev.Cores = len(out)
		p.bus.Emit(p.busNow(), ev)
	}
	return out
}
