package engine

import (
	"time"

	"splitserve/internal/cloud"
	"splitserve/internal/seqid"
	"splitserve/internal/telemetry"
	"splitserve/internal/warmpool"
)

// Executor launch constants every backend shares.
const (
	// vmLaunchDelay models executor JVM spin-up and registration on a VM
	// core.
	vmLaunchDelay = time.Second
	// LambdaLaunchDelay is the default executor runtime bootstrap inside a
	// Lambda once its environment is up.
	LambdaLaunchDelay = 1500 * time.Millisecond
	// lambdaCPUFactor derates a Lambda executor's CPU relative to an EC2
	// vCPU (Firecracker scheduling and burstable shares; ~0.85 observed).
	lambdaCPUFactor = 0.85
	// lambdaTTLMargin drains a Lambda executor whose remaining platform
	// lifetime falls below it, avoiding the expiry-induced rollback.
	lambdaTTLMargin = 60 * time.Second
)

// Calibrated driver overheads for Config.StageLaunchOverhead and
// Config.TaskDispatchCost. In real Spark a stage launch is DAG
// bookkeeping, task-set construction and a binary broadcast, and the
// driver dispatches tasks serially. Every experiment scenario and cluster
// job runs with them; a zero Config models a bare driver.
const (
	DefaultStageLaunchOverhead = 1400 * time.Millisecond
	DefaultTaskDispatchCost    = 4 * time.Millisecond
)

// Fleet is the executor lifecycle every backend shares, the mechanics of
// the paper's launching facility (§4): it names executors, counts them
// live and in flight per kind, launches them on VM cores and Lambdas,
// keeps tasks off Lambdas near the platform's lifetime cap and drains
// them, removes the executors of expired Lambdas, and gives back what an
// executor held when it goes. It also keeps every Lambda it launched, the
// only list of them (the provider keeps none), so its backend can bill
// them; they go with the fleet. A backend keeps only where its VM cores
// come from and its policy. Start binds a Fleet before its first launch.
type Fleet struct {
	// Desired is the executor total the engine last asked for.
	Desired int
	// VMLive and LambdaLive count registered executors; VMPending and
	// LambdaPending count launches still in flight.
	VMLive, VMPending, LambdaLive, LambdaPending int

	c      *Cluster
	prefix string
	seq    int
	hooks  FleetHooks
	// envs maps a provisioned Lambda executor to the warm-pool
	// environment hosting it.
	envs map[string]*warmpool.Env
	// lambdas are the fleet's invocations in launch order.
	lambdas []*cloud.Lambda
	closed  bool
}

// FleetHooks connect a Fleet to the backend that owns it.
type FleetHooks struct {
	// FreeCore gives back the VM core executor id held on vm, when the
	// fleet drops the executor's launch or removes it. Required for
	// LaunchVM.
	FreeCore func(id string, vm *cloud.VM)
	// Refill, if set, runs after the executor of an expired Lambda is
	// removed, to bridge the hole.
	Refill func()
	// VMUp, if set, runs after a VM executor registers.
	VMUp func()
	// Warm takes back the environments of provisioned Lambda executors.
	Warm *warmpool.Pool
}

// Start binds the fleet to c. Executor IDs are prefix-v01, prefix-l02,
// prefix-w03, ... for VM, on-demand Lambda and provisioned Lambda
// executors, numbered in launch order.
func (f *Fleet) Start(c *Cluster, prefix string, h FleetHooks) {
	f.c, f.prefix, f.hooks = c, prefix, h
}

// Live counts registered executors.
func (f *Fleet) Live() int { return f.VMLive + f.LambdaLive }

// Lambdas returns every Lambda the fleet launched, in launch order. The
// slice is the fleet's own; callers must not modify it.
func (f *Fleet) Lambdas() []*cloud.Lambda { return f.lambdas }

// InFlight counts launches not yet registered or dropped.
func (f *Fleet) InFlight() int { return f.VMPending + f.LambdaPending }

// Close makes every launch still in flight drop instead of registering,
// and stops the fleet reacting to Lambda expiry.
func (f *Fleet) Close() { f.closed = true }

// Closed reports whether Close was called.
func (f *Fleet) Closed() bool { return f.closed }

// nextID numbers the fleet's next executor: "<prefix>-<kind>%02d".
func (f *Fleet) nextID(kind byte) string {
	f.seq++
	var buf [64]byte
	return string(seqid.Append(append(append(buf[:0], f.prefix...), '-', kind), f.seq, 2))
}

// launchSpan opens an executor's launch span. An untraced hub has no
// tracer, and its launches build no span labels.
func (f *Fleet) launchSpan(id, kind string) *telemetry.Span {
	tr := f.c.cfg.Telem.Tracer()
	if tr == nil {
		return nil
	}
	return tr.StartSpan("executor", "launch", telemetry.L("exec", id), telemetry.L("kind", kind))
}

// LaunchVM starts an executor on a core of vm that the caller has claimed
// and returns its ID. memMB overrides the executor's memory (0 = the
// host's memory per core); credits is the host's CPU-credit gauge if it
// is burstable. After the launch delay the executor registers, unless the
// fleet is closed, vm is no longer ready, or checkDemand is set and the
// fleet already has Desired executors; a dropped launch frees its core.
func (f *Fleet) LaunchVM(vm *cloud.VM, memMB int, credits *cloud.CreditGauge, checkDemand bool) string {
	f.VMPending++
	id := f.nextID('v')
	if memMB == 0 {
		memMB = VMExecutorMemoryMB(vm.Type)
	}
	span := f.launchSpan(id, "vm")
	f.c.Clock().After(vmLaunchDelay, func() {
		f.VMPending--
		span.End()
		if f.closed || vm.State != cloud.VMReady || checkDemand && f.Live() >= f.Desired {
			f.hooks.FreeCore(id, vm)
			return
		}
		f.VMLive++
		cl := VMExecutorClient(vm)
		f.c.RegisterExecutor(ExecutorSpec{
			ID: id, Kind: ExecVM, HostID: vm.ID, MemoryMB: memMB, CPUShare: 1,
			IO: cl, Serve: cl, VM: vm, Credits: credits,
		})
		if f.hooks.VMUp != nil {
			f.hooks.VMUp()
		}
	})
	return id
}

// LaunchLambda invokes a Lambda of memMB for one executor, on the
// warm-pool environment env or on demand when env is nil, adds it to
// Lambdas and returns it. The executor registers delay after the Lambda is up, unless the fleet is
// closed or already has Desired executors; a dropped launch releases the
// Lambda and its environment. Callers validate memMB before the run, so a
// rejected invocation is a bug and panics.
func (f *Fleet) LaunchLambda(memMB int, delay time.Duration, env *warmpool.Env) *cloud.Lambda {
	f.LambdaPending++
	kind, invoke := byte('l'), f.c.Provider().Invoke
	if env != nil {
		kind, invoke = 'w', f.c.Provider().InvokeProvisioned
	}
	id := f.nextID(kind)
	span := f.launchSpan(id, "lambda")
	l, err := invoke(cloud.LambdaConfig{MemoryMB: memMB},
		func(l *cloud.Lambda) {
			f.c.Clock().After(delay, func() { f.registerLambda(id, l, env, span) })
		},
		// Platform lifetime expiry: the executor dies hard, and the
		// shuffle blocks in its /tmp die with it — the rollback the TTL
		// drain exists to avoid.
		func(*cloud.Lambda) { f.expire(id) })
	if err != nil {
		panic(err)
	}
	f.lambdas = append(f.lambdas, l)
	return l
}

func (f *Fleet) registerLambda(id string, l *cloud.Lambda, env *warmpool.Env, span *telemetry.Span) {
	f.LambdaPending--
	span.End()
	if f.closed || f.Live() >= f.Desired {
		f.c.Provider().Release(l)
		f.hooks.Warm.Release(env) // a no-op for an on-demand launch's nil env
		return
	}
	f.LambdaLive++
	cl := LambdaExecutorClient(l)
	if env != nil {
		// A provisioned executor's host is its environment, not the
		// invocation, so /tmp-cached shuffle blocks keyed by host survive
		// across the invocations (and jobs) the environment serves.
		if f.envs == nil {
			f.envs = make(map[string]*warmpool.Env)
		}
		f.envs[id] = env
		if tmp, ok := f.c.Store().(*warmpool.TmpCache); ok {
			tmp.Track(env.ID)
		}
		cl.HostID = env.ID
	}
	f.c.RegisterExecutor(ExecutorSpec{
		ID: id, Kind: ExecLambda, HostID: cl.HostID, MemoryMB: l.Config.MemoryMB,
		CPUShare: l.Config.CPUShare() * lambdaCPUFactor,
		IO:       cl, Serve: cl, Lambda: l,
	})
}

func (f *Fleet) expire(id string) {
	if f.closed {
		return
	}
	if e := f.c.Executor(id); e != nil && f.Remove(e, "lambda lifetime expired") && f.hooks.Refill != nil {
		f.hooks.Refill()
	}
}

// AllowAssign vetoes tasks on a Lambda executor whose platform lifetime
// is about to run out, and drains it.
func (f *Fleet) AllowAssign(e *Executor) bool {
	if e.Kind != ExecLambda || f.c.Provider().TimeToLive(e.Lambda) >= lambdaTTLMargin {
		return true
	}
	f.c.DrainExecutor(e.ID)
	return false
}

// Remove takes e out of service for reason and gives back what it held: a
// Lambda executor's invocation and warm-pool environment, or a VM
// executor's core. It reports false, doing nothing, if e was already gone.
func (f *Fleet) Remove(e *Executor, reason string) bool {
	if e.State == ExecDead {
		return false
	}
	switch e.Kind {
	case ExecLambda:
		f.c.Provider().Release(e.Lambda)
		if env := f.envs[e.ID]; env != nil {
			delete(f.envs, e.ID)
			f.hooks.Warm.Release(env)
		}
		f.LambdaLive--
		// The Lambda's /tmp dies with it; a durable shuffle store loses
		// nothing.
		f.c.RemoveExecutor(e.ID, true, reason)
	case ExecVM:
		f.VMLive--
		f.c.RemoveExecutor(e.ID, false, reason)
		f.hooks.FreeCore(e.ID, e.VM)
	}
	return true
}

// VMSlots are the cores of VMs a backend owns outright, claimed one
// executor at a time: vanilla Spark's workers and SplitServe's free cores
// and segue VMs.
type VMSlots struct{ slots []vmSlot }

type vmSlot struct {
	vm             *cloud.VM
	capacity, used int
}

// AddBudget adds vms in order, at most budget cores in total; a negative
// budget adds every core.
func (s *VMSlots) AddBudget(vms []*cloud.VM, budget int) {
	for _, vm := range vms {
		capacity := vm.Type.VCPUs
		if budget >= 0 {
			if budget == 0 {
				break
			}
			capacity = min(capacity, budget)
			budget -= capacity
		}
		s.Add(vm, capacity, 0)
	}
}

// Add adds capacity cores of vm, used of them already claimed.
func (s *VMSlots) Add(vm *cloud.VM, capacity, used int) {
	s.slots = append(s.slots, vmSlot{vm: vm, capacity: capacity, used: used})
}

// Take claims a free core of the first ready VM that has one and returns
// the VM, or nil when none has.
func (s *VMSlots) Take() *cloud.VM {
	for i := range s.slots {
		if sl := &s.slots[i]; sl.vm.State == cloud.VMReady && sl.used < sl.capacity {
			sl.used++
			return sl.vm
		}
	}
	return nil
}

// Free gives back a claimed core of vm; it is the FreeCore hook of a
// fleet on owned VMs.
func (s *VMSlots) Free(_ string, vm *cloud.VM) {
	for i := range s.slots {
		if sl := &s.slots[i]; sl.vm == vm && sl.used > 0 {
			sl.used--
			return
		}
	}
}

// Ready sums the cores of ready VMs.
func (s *VMSlots) Ready() int {
	total := 0
	for _, sl := range s.slots {
		if sl.vm.State == cloud.VMReady {
			total += sl.capacity
		}
	}
	return total
}
