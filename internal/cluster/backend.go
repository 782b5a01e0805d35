package cluster

import (
	"time"

	"splitserve/internal/autoscale"
	"splitserve/internal/cloud"
	"splitserve/internal/spark/engine"
	"splitserve/internal/warmpool"
)

// jobBackend is one job's engine.Backend inside a shared cluster. Its
// executors live in an engine.Fleet, the lifecycle internal/core's
// SplitServe and the standalone backend share; what a jobBackend adds is
// where its VM cores come from. Unlike SplitServe (which owns its VMs
// outright), it runs VM executors only on cores leased from the
// scheduler's shared CorePool; the scheduler's policy decides how many
// leases it gets, and can claw them back (reclaim) while the job runs.
// Under StrategyBridge the shortfall between the engine's desired
// executor total and the leased cores is served by Lambda executors
// (warm-pool environments first), exactly the paper's system-wide
// launching facility: the job needs R, the pool spares r, and Δ = R−r
// Lambdas absorb the difference.
type jobBackend struct {
	s     *Scheduler
	j     *job
	c     *engine.Cluster
	fleet engine.Fleet

	// spare holds granted-but-unlaunched core leases; leaseByExec maps a
	// launched (or launching) VM executor to the lease backing it.
	spare       []*cloud.CoreLease
	leaseByExec map[string]*cloud.CoreLease

	// drainingVM counts VM executors being reclaimed: they still hold a
	// lease but no longer count toward the job's effective share.
	drainingVM int
}

func newJobBackend(s *Scheduler, j *job) *jobBackend {
	return &jobBackend{s: s, j: j, leaseByExec: make(map[string]*cloud.CoreLease)}
}

// Start implements engine.Backend.
func (b *jobBackend) Start(c *engine.Cluster) {
	b.c = c
	b.fleet.Start(c, b.j.execPrefix, engine.FleetHooks{
		FreeCore: b.releaseLease, Refill: b.reconcile, VMUp: b.segue, Warm: b.s.warm,
	})
}

// SetDesiredTotal implements engine.Backend.
func (b *jobBackend) SetDesiredTotal(n int) {
	b.fleet.Desired = n
	b.reconcile()
}

// JobSubmitted implements engine.Backend; sizing is fixed by the static
// allocator, so it is a no-op.
func (b *jobBackend) JobSubmitted(time.Duration) {}

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
	f := &b.fleet
	if f.Closed() || b.c == nil {
		return
	}
	for len(b.spare) > 0 {
		lease := b.spare[0]
		b.spare = b.spare[1:]
		b.leaseByExec[f.LaunchVM(lease.VM(), 0, nil, false)] = lease
	}
	if b.s.cfg.Strategy != autoscale.StrategyBridge {
		return
	}
	for f.Live()+f.InFlight() < f.Desired {
		// The launching facility prefers the provisioned-concurrency pool:
		// a warm environment starts in ~100 ms instead of a cold start, and
		// its /tmp cache may already hold shuffle blocks from earlier work.
		var env *warmpool.Env
		if b.s.warm != nil {
			env = b.s.warm.Acquire()
		}
		f.LaunchLambda(lambdaMemoryMB, engine.LambdaLaunchDelay, env)
	}
}

// segue is the per-job segue, run as each VM executor registers: a VM
// core coming online displaces the longest-lived (most TTL-exposed)
// Lambda executor once the job is over strength.
func (b *jobBackend) segue() {
	if b.fleet.LambdaLive == 0 || b.fleet.Live() <= b.fleet.Desired {
		return
	}
	for _, e := range b.c.AllExecutors() {
		if e.Kind == engine.ExecLambda && e.State != engine.ExecDead && e.State != engine.ExecDraining {
			b.c.DrainExecutor(e.ID)
			return
		}
	}
}

// reclaim gives n cores back to the pool: spare (unlaunched) leases go
// immediately; the rest drain live VM executors newest-first, so the
// oldest executors — the ones with the warmest block caches — survive.
// Cores attached to launches still in flight cannot be clawed back.
func (b *jobBackend) reclaim(n int) {
	if b.fleet.Closed() {
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
		if e.Kind != engine.ExecVM || e.State == engine.ExecDead || e.State == engine.ExecDraining {
			continue
		}
		victims = append(victims, e.ID)
	}
	for _, id := range victims {
		b.drainingVM++
		b.c.DrainExecutor(id)
	}
}

// AllowAssign implements engine.Backend: the fleet's Lambda lifetime veto.
func (b *jobBackend) AllowAssign(e *engine.Executor) bool { return b.fleet.AllowAssign(e) }

// ExecutorDrained implements engine.Backend.
func (b *jobBackend) ExecutorDrained(e *engine.Executor) { b.remove(e, "drained") }

// ReleaseIdle implements engine.Backend.
func (b *jobBackend) ReleaseIdle(e *engine.Executor) { b.remove(e, "idle timeout") }

func (b *jobBackend) remove(e *engine.Executor, reason string) {
	if b.fleet.Closed() {
		return
	}
	// Only reclaim drains VM executors.
	if e.Kind == engine.ExecVM && e.State == engine.ExecDraining {
		b.drainingVM--
	}
	if b.fleet.Remove(e, reason) {
		b.reconcile()
	}
}

// releaseLease returns the lease behind VM executor id to the pool: the
// fleet's FreeCore hook.
func (b *jobBackend) releaseLease(id string, _ *cloud.VM) {
	lease := b.leaseByExec[id]
	delete(b.leaseByExec, id)
	lease.Release()
	b.s.kick()
}

// shutdown tears the backend down after the job's workload returns:
// executors are removed in registration order, giving back their Lambdas
// and leases, and the spare leases return to the pool. Launch callbacks
// still in flight see the closed fleet and self-release.
func (b *jobBackend) shutdown() {
	if b.fleet.Closed() {
		return
	}
	b.fleet.Close()
	if b.c != nil {
		for _, e := range b.c.AllExecutors() {
			b.fleet.Remove(e, "job complete")
		}
	}
	for _, lease := range b.spare {
		lease.Release()
	}
	b.spare = nil
	b.s.kick()
}
