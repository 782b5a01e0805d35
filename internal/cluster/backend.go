package cluster

import (
	"fmt"
	"time"

	"splitserve/internal/autoscale"
	"splitserve/internal/cloud"
	"splitserve/internal/spark/engine"
	"splitserve/internal/warmpool"
)

// Per-executor launch constants, matching internal/core's defaults so the
// cluster layer's executors behave like the intra-job SplitServe backend.
const (
	vmExecLaunchDelay     = time.Second
	lambdaExecLaunchDelay = 1500 * time.Millisecond
	ttlSafetyMargin       = 60 * time.Second
	lambdaCPUFactor       = 0.85
)

// jobBackend is one job's engine.Backend inside a shared cluster. Unlike
// internal/core's SplitServe (which owns its VMs outright), a jobBackend
// runs VM executors only on cores leased from the scheduler's shared
// CorePool; the scheduler's policy decides how many leases it gets, and
// can claw them back (reclaim) while the job runs. Under StrategyBridge
// the shortfall between the engine's desired executor total and the
// leased cores is served by Lambda executors, exactly the paper's
// system-wide launching facility: the job needs R, the pool spares r,
// and Δ = R−r Lambdas absorb the difference.
type jobBackend struct {
	s *Scheduler
	j *job
	c *engine.Cluster

	desired int

	// spare holds granted-but-unlaunched core leases; leaseByExec maps a
	// launched (or launching) VM executor to the lease backing it.
	spare       []*cloud.CoreLease
	leaseByExec map[string]*cloud.CoreLease

	vmLive, vmPending         int
	lambdaLive, lambdaPending int
	// drainingVM counts VM executors being reclaimed: they still hold a
	// lease but no longer count toward the job's effective share.
	drainingVM int

	lambdaByExec map[string]*cloud.Lambda
	// envByExec maps a provisioned-concurrency executor to the warm-pool
	// environment hosting it, returned to the pool on removal.
	envByExec map[string]*warmpool.Env
	draining  map[string]bool
	execSeq   int
	done      bool
}

func newJobBackend(s *Scheduler, j *job) *jobBackend {
	return &jobBackend{
		s: s, j: j,
		leaseByExec:  make(map[string]*cloud.CoreLease),
		lambdaByExec: make(map[string]*cloud.Lambda),
		envByExec:    make(map[string]*warmpool.Env),
		draining:     make(map[string]bool),
	}
}

// Name implements engine.Backend.
func (b *jobBackend) Name() string { return "cluster" }

// Start implements engine.Backend.
func (b *jobBackend) Start(c *engine.Cluster) { b.c = c }

// SetDesiredTotal implements engine.Backend.
func (b *jobBackend) SetDesiredTotal(n int) {
	b.desired = n
	b.reconcile()
}

// JobSubmitted / JobFinished implement engine.Backend; sizing is fixed by
// the static allocator, so both are no-ops.
func (b *jobBackend) JobSubmitted(name string, slo time.Duration) {}
func (b *jobBackend) JobFinished()                                {}

func (b *jobBackend) live() int     { return b.vmLive + b.lambdaLive }
func (b *jobBackend) inFlight() int { return b.vmPending + b.lambdaPending }

// coresHeld is how many pool cores the job currently occupies (launched,
// launching, or spare).
func (b *jobBackend) coresHeld() int { return len(b.spare) + len(b.leaseByExec) }

// vmEffective is the job's effective share: held cores minus ones already
// being reclaimed. The scheduler grants/reclaims against this number.
func (b *jobBackend) vmEffective() int { return b.coresHeld() - b.drainingVM }

// addLeases hands the backend freshly acquired pool cores.
func (b *jobBackend) addLeases(leases []*cloud.CoreLease) {
	b.spare = append(b.spare, leases...)
	if b.c != nil {
		b.reconcile()
	}
}

// reconcile launches a VM executor per spare lease and, under
// StrategyBridge, tops the job up to its desired total with Lambdas.
func (b *jobBackend) reconcile() {
	if b.done || b.c == nil {
		return
	}
	for len(b.spare) > 0 {
		lease := b.spare[0]
		b.spare = b.spare[1:]
		b.launchVMExecutor(lease)
	}
	if b.s.cfg.Strategy != autoscale.StrategyBridge {
		return
	}
	for b.live()+b.inFlight() < b.desired {
		// The launching facility prefers the provisioned-concurrency pool:
		// a warm environment starts in ~100 ms instead of a cold start, and
		// its /tmp cache may already hold shuffle blocks from earlier work.
		var env *warmpool.Env
		if b.s.warm != nil {
			env = b.s.warm.Acquire()
		}
		b.launchLambdaExecutor(env)
	}
}

func (b *jobBackend) launchVMExecutor(lease *cloud.CoreLease) {
	b.vmPending++
	b.execSeq++
	id := fmt.Sprintf("%s-v%02d", b.j.execPrefix, b.execSeq)
	b.leaseByExec[id] = lease
	vm := lease.VM()
	b.c.Clock().After(vmExecLaunchDelay, func() {
		b.vmPending--
		if b.done || vm.State != cloud.VMReady {
			b.releaseLeaseFor(id)
			return
		}
		b.vmLive++
		cl := engine.VMExecutorClient(vm)
		b.c.RegisterExecutor(engine.ExecutorSpec{
			ID: id, Kind: engine.ExecVM, HostID: vm.ID,
			MemoryMB: engine.VMExecutorMemoryMB(vm.Type), CPUShare: 1,
			IO: cl, Serve: cl, VM: vm,
		})
		// The per-job segue: a VM core coming online displaces the most
		// senior Lambda once the job is at (or over) strength.
		if b.lambdaLive > 0 && b.live() > b.desired {
			b.drainOldestLambda()
		}
	})
}

// launchLambdaExecutor starts a Lambda executor: on-demand when env is
// nil, otherwise on that warm-pool environment. A provisioned executor's
// HostID is the *environment* ID, not the invocation ID, so /tmp-cached
// shuffle blocks keyed by host survive across the invocations (and jobs)
// the environment serves.
func (b *jobBackend) launchLambdaExecutor(env *warmpool.Env) {
	b.lambdaPending++
	b.execSeq++
	letter, invoke := 'l', b.c.Provider().Invoke
	if env != nil {
		letter, invoke = 'w', b.c.Provider().InvokeProvisioned
	}
	id := fmt.Sprintf("%s-%c%02d", b.j.execPrefix, letter, b.execSeq)
	cfg := cloud.LambdaConfig{MemoryMB: lambdaMemoryMB}
	l, err := invoke(cfg,
		func(l *cloud.Lambda) {
			b.c.Clock().After(lambdaExecLaunchDelay, func() {
				b.lambdaPending--
				if b.done || b.live() >= b.desired {
					b.c.Provider().Release(l)
					b.releaseEnv(env)
					return
				}
				b.lambdaLive++
				b.lambdaByExec[id] = l
				cl := engine.LambdaExecutorClient(l)
				if env != nil {
					b.envByExec[id] = env
					if b.s.tmpCache != nil {
						b.s.tmpCache.Track(env.ID)
					}
					cl.HostID = env.ID
				}
				b.c.RegisterExecutor(engine.ExecutorSpec{
					ID: id, Kind: engine.ExecLambda, HostID: cl.HostID,
					MemoryMB: cfg.MemoryMB,
					CPUShare: cfg.CPUShare(b.c.Provider().Limits()) * lambdaCPUFactor,
					IO:       cl, Serve: cl, Lambda: l,
				})
			})
		},
		func(l *cloud.Lambda) { b.onLambdaExpired(id) })
	if err != nil {
		b.lambdaPending--
		b.releaseEnv(env)
		return
	}
	b.j.lambdas = append(b.j.lambdas, l)
}

// releaseEnv returns env to the warm pool (no-op for nil, an on-demand
// launch).
func (b *jobBackend) releaseEnv(env *warmpool.Env) {
	if env != nil {
		b.s.warm.Release(env)
	}
}

// releaseEnvFor returns a provisioned executor's environment to the warm
// pool (no-op for on-demand Lambda executors).
func (b *jobBackend) releaseEnvFor(id string) {
	if env := b.envByExec[id]; env != nil {
		delete(b.envByExec, id)
		b.s.warm.Release(env)
	}
}

func (b *jobBackend) onLambdaExpired(id string) {
	if b.done {
		return
	}
	if e := b.c.Executor(id); e != nil && e.State != engine.ExecDead {
		b.lambdaLive--
		delete(b.lambdaByExec, id)
		b.releaseEnvFor(id)
		delete(b.draining, id)
		b.c.RemoveExecutor(id, true, "lambda lifetime expired")
		b.reconcile()
	}
}

// drainOldestLambda retires the longest-lived Lambda executor (the most
// TTL-exposed one) in favor of a VM core.
func (b *jobBackend) drainOldestLambda() {
	for _, e := range b.c.AllExecutors() {
		if e.Kind != engine.ExecLambda || e.State == engine.ExecDead || b.draining[e.ID] {
			continue
		}
		b.draining[e.ID] = true
		b.c.DrainExecutor(e.ID)
		return
	}
}

// reclaim gives n cores back to the pool: spare (unlaunched) leases go
// immediately; the rest drain live VM executors newest-first, so the
// oldest executors — the ones with the warmest block caches — survive.
// Cores attached to launches still in flight cannot be clawed back.
func (b *jobBackend) reclaim(n int) {
	if b.done {
		return
	}
	for n > 0 && len(b.spare) > 0 {
		lease := b.spare[len(b.spare)-1]
		b.spare = b.spare[:len(b.spare)-1]
		lease.Release()
		b.s.kick()
		n--
	}
	if n <= 0 || b.c == nil {
		return
	}
	execs := b.c.AllExecutors()
	var victims []string
	for i := len(execs) - 1; i >= 0 && len(victims) < n; i-- {
		e := execs[i]
		if e.Kind != engine.ExecVM || e.State == engine.ExecDead || b.draining[e.ID] {
			continue
		}
		victims = append(victims, e.ID)
	}
	for _, id := range victims {
		b.draining[id] = true
		b.drainingVM++
		b.c.DrainExecutor(id)
	}
}

// AllowAssign implements engine.Backend: it vetoes task placement on
// Lambdas close to their lifetime limit and starts their drain, the same
// TTL segue internal/core runs.
func (b *jobBackend) AllowAssign(e *engine.Executor) bool {
	if e.Kind != engine.ExecLambda {
		return true
	}
	l := b.lambdaByExec[e.ID]
	if l == nil {
		return true
	}
	if b.c.Provider().TimeToLive(l) < ttlSafetyMargin {
		if !b.draining[e.ID] {
			b.draining[e.ID] = true
			b.c.DrainExecutor(e.ID)
		}
		return false
	}
	return true
}

// ExecutorDrained implements engine.Backend.
func (b *jobBackend) ExecutorDrained(e *engine.Executor) { b.remove(e, "drained") }

// ReleaseIdle implements engine.Backend.
func (b *jobBackend) ReleaseIdle(e *engine.Executor) { b.remove(e, "idle timeout") }

func (b *jobBackend) remove(e *engine.Executor, reason string) {
	if b.done || e.State == engine.ExecDead {
		return
	}
	switch e.Kind {
	case engine.ExecLambda:
		if l := b.lambdaByExec[e.ID]; l != nil {
			b.c.Provider().Release(l)
			delete(b.lambdaByExec, e.ID)
		}
		b.releaseEnvFor(e.ID)
		b.lambdaLive--
		b.c.RemoveExecutor(e.ID, true, reason)
	case engine.ExecVM:
		b.vmLive--
		if b.draining[e.ID] {
			b.drainingVM--
		}
		b.c.RemoveExecutor(e.ID, false, reason)
		b.releaseLeaseFor(e.ID)
	}
	delete(b.draining, e.ID)
	b.reconcile()
}

func (b *jobBackend) releaseLeaseFor(id string) {
	if lease := b.leaseByExec[id]; lease != nil {
		delete(b.leaseByExec, id)
		lease.Release()
		b.s.kick()
	}
}

// shutdown tears the backend down after the job's workload returns:
// Lambdas are released, VM executors removed and their leases returned to
// the pool. Launch callbacks still in flight observe done and self-release.
func (b *jobBackend) shutdown() {
	if b.done {
		return
	}
	b.done = true
	if b.c != nil {
		for _, e := range b.c.AllExecutors() {
			if e.State == engine.ExecDead {
				continue
			}
			switch e.Kind {
			case engine.ExecLambda:
				if l := b.lambdaByExec[e.ID]; l != nil {
					b.c.Provider().Release(l)
					delete(b.lambdaByExec, e.ID)
				}
				b.releaseEnvFor(e.ID)
				b.c.RemoveExecutor(e.ID, true, "job complete")
			case engine.ExecVM:
				b.c.RemoveExecutor(e.ID, false, "job complete")
				b.releaseLeaseFor(e.ID)
			}
		}
	}
	for _, lease := range b.spare {
		lease.Release()
	}
	b.spare = nil
	b.s.kick()
}
