package cloud

import (
	"fmt"
	"time"

	"splitserve/internal/eventlog"
	"splitserve/internal/netsim"
	"splitserve/internal/seqid"
	"splitserve/internal/simclock"
	"splitserve/internal/simrand"
	"splitserve/internal/telemetry"
	"splitserve/internal/warmpool"
)

// VMState enumerates the lifecycle of an instance.
type VMState int

// VM lifecycle states.
const (
	VMPending VMState = iota + 1
	VMReady
	VMTerminated
)

func (s VMState) String() string {
	switch s {
	case VMPending:
		return "pending"
	case VMReady:
		return "ready"
	case VMTerminated:
		return "terminated"
	default:
		return fmt.Sprintf("VMState(%d)", int(s))
	}
}

// VM is a provisioned instance. Its EBS and NIC are netsim pools shared by
// everything running on the instance.
type VM struct {
	ID          string
	Type        VMType
	State       VMState
	RequestedAt time.Time
	ReadyAt     time.Time
	EndedAt     time.Time
	EBS         *netsim.Pool
	NIC         *netsim.Pool

	bootSpan *telemetry.Span
}

// Uptime returns how long the VM has been (or was) billable: from request
// until termination or now.
func (v *VM) Uptime(now time.Time) time.Duration {
	end := now
	if v.State == VMTerminated {
		end = v.EndedAt
	}
	if end.Before(v.RequestedAt) {
		return 0
	}
	return end.Sub(v.RequestedAt)
}

// LambdaState enumerates the lifecycle of a function invocation.
type LambdaState int

// Lambda lifecycle states.
const (
	LambdaStarting LambdaState = iota + 1
	LambdaRunning
	LambdaFinished // tenant code returned
	LambdaExpired  // killed by the platform at the lifetime cap
)

func (s LambdaState) String() string {
	switch s {
	case LambdaStarting:
		return "starting"
	case LambdaRunning:
		return "running"
	case LambdaFinished:
		return "finished"
	case LambdaExpired:
		return "expired"
	default:
		return fmt.Sprintf("LambdaState(%d)", int(s))
	}
}

// Lambda is one function invocation.
type Lambda struct {
	ID        string
	Config    LambdaConfig
	State     LambdaState
	ColdStart bool
	// Provisioned marks an invocation hosted on a provisioned-concurrency
	// environment (InvokeProvisioned): it always starts warm and its
	// environment belongs to a warmpool.Pool rather than the ambient
	// warm-reuse accounting.
	Provisioned bool
	InvokedAt   time.Time
	ReadyAt     time.Time
	EndedAt     time.Time
	// Egress is the invocation's private uplink pool (Lambdas do not share
	// a NIC with co-tenants in our model; their bandwidth cap is the
	// memory-proportional egress limit).
	Egress *netsim.Pool

	expiry simclock.Timer
	// onKill is the caller's expiry callback. The record may outlive its
	// invocation (the launching fleet keeps it to bill its job), so onKill
	// is cleared once the invocation ends: it typically closes over the
	// launching job's whole engine.
	onKill    func(*Lambda)
	startSpan *telemetry.Span
	lifeSpan  *telemetry.Span
}

// BilledDuration returns the runtime used for billing: ready (or invoked,
// for cold starts AWS bills init separately; we fold it in conservatively)
// to end.
func (l *Lambda) BilledDuration(now time.Time) time.Duration {
	end := now
	if l.State == LambdaFinished || l.State == LambdaExpired {
		end = l.EndedAt
	}
	start := l.InvokedAt
	if end.Before(start) {
		return 0
	}
	return end.Sub(start)
}

// Options configure a Provider.
type Options struct {
	// VMBootMean/VMBootStdDev parameterise the instance start-up delay
	// ("an AWS VM may take up to 2 minutes or more").
	VMBootMean   time.Duration
	VMBootStdDev time.Duration
	// WarmStart and ColdStart are Lambda launch latencies (~100 ms warm).
	WarmStart time.Duration
	ColdStart time.Duration
	// WarmPoolSize is how many pre-warmed environments exist per
	// configuration at simulation start (0 = everything cold).
	WarmPoolSize int
	// Limits are the platform limits.
	Limits LambdaLimits
}

// DefaultOptions returns the paper-calibrated defaults.
func DefaultOptions() Options {
	return Options{
		VMBootMean:   110 * time.Second,
		VMBootStdDev: 10 * time.Second,
		WarmStart:    100 * time.Millisecond,
		ColdStart:    8 * time.Second,
		WarmPoolSize: 1024,
		Limits:       DefaultLambdaLimits(),
	}
}

// Provider simulates the cloud control plane: VM provisioning and Lambda
// invocation on the simulation clock. It keeps every VM it provisions,
// but no ledger of invocations: an invocation's record is reachable only
// from its caller (in the engine, the engine.Fleet that launched it) and
// from its own pending start-up and expiry timers, so it goes once its
// caller lets go and it has ended.
type Provider struct {
	clock *simclock.Clock
	net   *netsim.Network
	rng   *simrand.RNG
	opts  Options

	vmSeq     int
	lambdaSeq int
	// warm is the single source of truth for ambient warm-environment
	// availability (memoryMB -> count), shared bookkeeping with the
	// provisioned-concurrency layer in internal/warmpool.
	warm  *warmpool.Accounting
	vms   []*VM
	insts providerInstruments
	bus   *eventlog.Bus
}

// SetEventLog attaches an event-log bus; the provider emits control-plane
// events (vm_request/vm_ready, lambda_invoke/lambda_ready/lambda_release)
// with no app tag — the control plane is shared across jobs.
func (p *Provider) SetEventLog(bus *eventlog.Bus) { p.bus = bus }

func (p *Provider) emit(t eventlog.Type, exec, kind, note string) {
	if p.bus == nil {
		return
	}
	ev := eventlog.Ev(t)
	ev.Exec = exec
	ev.Kind = kind
	ev.Note = note
	p.bus.Emit(p.clock.Now(), ev)
}

// NewProvider returns a Provider driven by clock and net.
func NewProvider(clock *simclock.Clock, net *netsim.Network, rng *simrand.RNG, opts Options) *Provider {
	if opts.Limits == (LambdaLimits{}) {
		opts.Limits = DefaultLambdaLimits()
	}
	return &Provider{
		clock: clock,
		net:   net,
		rng:   rng,
		opts:  opts,
		warm:  warmpool.NewAccounting(opts.WarmPoolSize),
	}
}

// Clock exposes the provider's clock.
func (p *Provider) Clock() *simclock.Clock { return p.clock }

// Network exposes the provider's flow simulator.
func (p *Provider) Network() *netsim.Network { return p.net }

// Limits returns the Lambda platform limits in force.
func (p *Provider) Limits() LambdaLimits { return p.opts.Limits }

// VMs returns all instances ever requested (for billing and inspection).
func (p *Provider) VMs() []*VM { return append([]*VM(nil), p.vms...) }

// BootDelay samples one VM boot delay.
func (p *Provider) BootDelay() time.Duration {
	d := p.rng.TruncNormal(
		p.opts.VMBootMean.Seconds(),
		p.opts.VMBootStdDev.Seconds(),
		p.opts.VMBootMean.Seconds()/4,
		p.opts.VMBootMean.Seconds()*3,
	)
	return time.Duration(d * float64(time.Second))
}

// NominalVMStartup is the expected boot delay — what the segueing facility
// compares a job's SLO against.
func (p *Provider) NominalVMStartup() time.Duration { return p.opts.VMBootMean }

// RequestVM asynchronously provisions an instance; ready runs when it
// boots. Pass bootOverride > 0 to pin the delay (used by experiments that
// fix when capacity appears, e.g. Figure 7's segue at 45 s).
func (p *Provider) RequestVM(t VMType, bootOverride time.Duration, ready func(*VM)) *VM {
	p.vmSeq++
	vm := &VM{
		ID:          fmt.Sprintf("vm-%03d-%s", p.vmSeq, t.Name),
		Type:        t,
		State:       VMPending,
		RequestedAt: p.clock.Now(),
		EBS:         p.net.NewPool(fmt.Sprintf("vm-%03d/ebs", p.vmSeq), netsim.Mbps(t.EBSMbps)),
		NIC:         p.net.NewPool(fmt.Sprintf("vm-%03d/nic", p.vmSeq), netsim.Mbps(t.NetMbps)),
	}
	p.vms = append(p.vms, vm)
	p.insts.vmRequests.Inc()
	p.insts.vmsPending.Inc()
	p.emit(eventlog.VMRequest, vm.ID, "vm", t.Name)
	vm.bootSpan = p.tracer().StartSpan("cloud", "vm_boot", telemetry.L("vm", vm.ID))
	delay := bootOverride
	if delay <= 0 {
		delay = p.BootDelay()
	}
	p.clock.After(delay, func() {
		if vm.State != VMPending {
			return
		}
		vm.State = VMReady
		vm.ReadyAt = p.clock.Now()
		p.insts.vmsPending.Dec()
		p.insts.vmsLive.Inc()
		p.insts.vmBoot.ObserveDuration(vm.ReadyAt.Sub(vm.RequestedAt))
		p.emit(eventlog.VMReady, vm.ID, "vm", t.Name)
		vm.bootSpan.End()
		if ready != nil {
			ready(vm)
		}
	})
	return vm
}

// ProvisionReadyVM returns an instance that is already running when the
// simulation starts — the pre-existing cluster capacity in every scenario.
func (p *Provider) ProvisionReadyVM(t VMType) *VM {
	p.vmSeq++
	vm := &VM{
		ID:          fmt.Sprintf("vm-%03d-%s", p.vmSeq, t.Name),
		Type:        t,
		State:       VMReady,
		RequestedAt: p.clock.Now(),
		ReadyAt:     p.clock.Now(),
		EBS:         p.net.NewPool(fmt.Sprintf("vm-%03d/ebs", p.vmSeq), netsim.Mbps(t.EBSMbps)),
		NIC:         p.net.NewPool(fmt.Sprintf("vm-%03d/nic", p.vmSeq), netsim.Mbps(t.NetMbps)),
	}
	p.vms = append(p.vms, vm)
	p.insts.vmsLive.Inc()
	return vm
}

// TerminateVM stops an instance.
func (p *Provider) TerminateVM(vm *VM) {
	if vm.State == VMTerminated {
		return
	}
	switch vm.State {
	case VMPending:
		p.insts.vmsPending.Dec()
	case VMReady:
		p.insts.vmsLive.Dec()
	}
	vm.bootSpan.End()
	vm.State = VMTerminated
	vm.EndedAt = p.clock.Now()
}

// Invoke launches a Lambda. ready runs once the environment is up
// (warm ≈ 100 ms if a warm environment is available, cold otherwise);
// expired runs if the platform kills the invocation at the lifetime cap
// while the tenant code is still running.
func (p *Provider) Invoke(cfg LambdaConfig, ready func(*Lambda), expired func(*Lambda)) (*Lambda, error) {
	if err := cfg.Validate(p.opts.Limits); err != nil {
		return nil, err
	}
	cold := !p.warm.TryTake(cfg.MemoryMB)
	return p.invoke(cfg, cold, false, ready, expired), nil
}

// InvokeProvisioned launches a Lambda on a pre-initialized
// provisioned-concurrency environment: always a warm start, and the
// ambient warm-reuse accounting is untouched — the environment belongs
// to a warmpool.Pool, which tracks it separately.
func (p *Provider) InvokeProvisioned(cfg LambdaConfig, ready func(*Lambda), expired func(*Lambda)) (*Lambda, error) {
	if err := cfg.Validate(p.opts.Limits); err != nil {
		return nil, err
	}
	return p.invoke(cfg, false, true, ready, expired), nil
}

// lambdaID is the ID of the seq-th invocation: "la-%03d".
func lambdaID(seq int) string {
	var buf [24]byte
	return string(seqid.Append(append(buf[:0], "la-"...), seq, 3))
}

func (p *Provider) invoke(cfg LambdaConfig, cold, provisioned bool, ready func(*Lambda), expired func(*Lambda)) *Lambda {
	p.lambdaSeq++
	// Lambda network bandwidth is notoriously variable (gg [19]: "with
	// variable performance"); each environment draws its own effective
	// egress rate.
	jitter := p.rng.TruncNormal(1, 0.15, 0.6, 1.4)
	id := lambdaID(p.lambdaSeq)
	l := &Lambda{
		ID:          id,
		Config:      cfg,
		State:       LambdaStarting,
		ColdStart:   cold,
		Provisioned: provisioned,
		InvokedAt:   p.clock.Now(),
		// The pool's name only labels netsim's capacity panic, so the
		// invocation ID serves as it is.
		Egress: p.net.NewPool(id, netsim.Mbps(cfg.EgressMbps()*jitter)),
		onKill: expired,
	}
	si := startIdx(cold)
	p.insts.lambdaInvocations[si].Inc()
	p.insts.lambdasInFlight.Inc()
	kind := startNames[si]
	if provisioned {
		kind = "provisioned"
	}
	p.emit(eventlog.LambdaInvoke, l.ID, kind, "")
	l.startSpan = p.tracer().StartSpan("cloud", "lambda_start",
		telemetry.L("lambda", l.ID), telemetry.L("start", startNames[si]))
	l.lifeSpan = p.tracer().StartSpan("cloud", "lambda", telemetry.L("lambda", l.ID))
	start := p.opts.WarmStart
	if cold {
		start = p.opts.ColdStart
	}
	p.clock.After(start, func() {
		if l.State != LambdaStarting {
			return
		}
		l.State = LambdaRunning
		l.ReadyAt = p.clock.Now()
		p.insts.lambdaStart[si].ObserveDuration(l.ReadyAt.Sub(l.InvokedAt))
		p.emit(eventlog.LambdaReady, l.ID, startNames[si], "")
		l.startSpan.End()
		l.expiry = p.clock.After(p.opts.Limits.MaxLifetime, func() {
			if l.State != LambdaRunning {
				return
			}
			l.State = LambdaExpired
			l.EndedAt = p.clock.Now()
			p.insts.lambdasInFlight.Dec()
			l.lifeSpan.End()
			if kill := l.onKill; kill != nil {
				l.onKill = nil
				kill(l)
			}
		})
		if ready != nil {
			ready(l)
		}
	})
	return l
}

// Release ends an invocation normally (tenant code returned); the
// environment goes back to the warm pool. Provisioned invocations skip
// the ambient accounting: their environment is handed back to its
// warmpool.Pool by the caller.
func (p *Provider) Release(l *Lambda) {
	if l.State != LambdaRunning && l.State != LambdaStarting {
		return
	}
	l.expiry.Cancel()
	l.State = LambdaFinished
	l.EndedAt = p.clock.Now()
	l.onKill = nil
	p.insts.lambdasInFlight.Dec()
	p.emit(eventlog.LambdaRelease, l.ID, "", "")
	l.startSpan.End()
	l.lifeSpan.End()
	if !l.Provisioned {
		p.warm.Put(l.Config.MemoryMB)
	}
}

// TimeToLive returns how much of the lifetime cap remains for a running
// invocation.
func (p *Provider) TimeToLive(l *Lambda) time.Duration {
	if l.State != LambdaRunning {
		return 0
	}
	used := p.clock.Since(l.ReadyAt)
	if used >= p.opts.Limits.MaxLifetime {
		return 0
	}
	return p.opts.Limits.MaxLifetime - used
}

// WarmSnapshot copies the ambient warm-environment availability map
// (memoryMB -> count) for tests and inspection.
func (p *Provider) WarmSnapshot() map[int]int { return p.warm.Snapshot() }
