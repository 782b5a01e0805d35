package warmpool

import (
	"fmt"
	"math"
	"slices"
	"time"

	"splitserve/internal/eventlog"
	"splitserve/internal/simclock"
)

// Target tracking and recycling, as the platform's provisioned
// concurrency does it.
const (
	// resizeInterval is the target-tracking evaluation period.
	resizeInterval = time.Minute
	// targetUtilization is the busy fraction target tracking aims for:
	// target = ceil(peak busy / utilization).
	targetUtilization = 0.70
	// acquireMargin keeps environments this close to recycling from being
	// handed out — they are retired and replaced instead.
	acquireMargin = 90 * time.Second
)

// Config parameterises a provisioned-concurrency Pool.
type Config struct {
	// MemoryMB sizes every environment in the pool.
	MemoryMB int
	// Target is the initial provisioned-environment count; target
	// tracking resizes it between Min and Max on the virtual clock.
	Target int
	// Min/Max clamp target tracking (defaults: 1 and 4×Target).
	Min, Max int
	// EnvLifetime recycles environments, losing their /tmp state
	// (default 15 min — the platform's environment lifetime).
	EnvLifetime time.Duration
}

func (c Config) withDefaults() Config {
	if c.EnvLifetime <= 0 {
		c.EnvLifetime = 15 * time.Minute
	}
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = 4 * c.Target
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	return c
}

// Env is one pre-initialized environment. Its ID doubles as the /tmp
// cache host key, so cached shuffle blocks survive across the
// invocations the environment hosts — and die with it.
type Env struct {
	ID        string
	ExpiresAt time.Time

	busy   bool
	doomed bool
	dead   bool
	// idleSince/idleAccrued track provisioned-but-not-running time, the
	// idle-rate GB-seconds billing charges for.
	idleSince   time.Time
	idleAccrued time.Duration
	expiry      simclock.Timer
}

// EnvIdle is one environment's billed idle time.
type EnvIdle struct {
	ID   string
	Idle time.Duration
}

// Pool is a target-tracked set of provisioned environments on the
// virtual clock. Acquire hands out a warm environment (nil when all are
// busy — the caller falls back to an on-demand cold/warm invocation);
// Release returns it. Environments recycle at EnvLifetime, invoking the
// OnExpire hook so the /tmp cache tier can drop their blocks.
type Pool struct {
	clock *simclock.Clock
	bus   *eventlog.Bus
	cfg   Config

	seq    int
	target int
	// idle is a LIFO stack (most recently used last), keeping the
	// warmest /tmp caches in rotation.
	idle []*Env
	busy int
	envs []*Env

	peakBusy int
	stopped  bool

	onExpire func(envID string)

	warmHits, misses, resizes, recycled int
}

// NewPool builds the pool, provisions Target environments immediately,
// and starts the target-tracking resize loop. bus may be nil.
func NewPool(clock *simclock.Clock, bus *eventlog.Bus, cfg Config) (*Pool, error) {
	if clock == nil {
		return nil, fmt.Errorf("warmpool: nil clock")
	}
	if cfg.MemoryMB <= 0 {
		return nil, fmt.Errorf("warmpool: MemoryMB must be > 0")
	}
	if cfg.Target < 1 {
		return nil, fmt.Errorf("warmpool: Target must be >= 1")
	}
	cfg = cfg.withDefaults()
	p := &Pool{clock: clock, bus: bus, cfg: cfg, target: cfg.Target}
	p.emitResize(0, p.target, "provisioned")
	for p.live() < p.target {
		p.spawn()
	}
	p.clock.After(resizeInterval, p.tick)
	return p, nil
}

// SetOnExpire installs the environment-recycled hook (cache loss).
func (p *Pool) SetOnExpire(fn func(envID string)) { p.onExpire = fn }

// Config returns the effective configuration (defaults applied).
func (p *Pool) Config() Config { return p.cfg }

func (p *Pool) live() int { return p.busy + len(p.idle) }

// Target returns the current provisioned-environment target.
func (p *Pool) Target() int { return p.target }

// InUse returns how many environments are currently hosting invocations.
func (p *Pool) InUse() int { return p.busy }

// Idle returns how many provisioned environments sit warm and unused.
func (p *Pool) Idle() int { return len(p.idle) }

// WarmHits counts acquisitions served by a provisioned environment.
func (p *Pool) WarmHits() int { return p.warmHits }

// Misses counts acquisitions that found the pool exhausted.
func (p *Pool) Misses() int { return p.misses }

// Resizes counts target-tracking target changes (the initial
// provisioning included).
func (p *Pool) Resizes() int { return p.resizes }

// Recycled counts environments retired at their lifetime (with their
// /tmp contents).
func (p *Pool) Recycled() int { return p.recycled }

func (p *Pool) emit(t eventlog.Type, exec string, bytes int64, cores int, note string) {
	if p.bus == nil {
		return
	}
	ev := eventlog.Ev(t)
	ev.Exec = exec
	ev.Kind = "warmpool"
	ev.Bytes = bytes
	ev.Cores = cores
	ev.Note = note
	p.bus.Emit(p.clock.Now(), ev)
}

func (p *Pool) emitResize(old, target int, why string) {
	p.resizes++
	p.emit(eventlog.WarmpoolResize, "", 0, target, fmt.Sprintf("%d->%d (%s)", old, target, why))
}

func (p *Pool) spawn() *Env {
	p.seq++
	now := p.clock.Now()
	env := &Env{
		ID:        fmt.Sprintf("wp-%03d", p.seq),
		ExpiresAt: now.Add(p.cfg.EnvLifetime),
		idleSince: now,
	}
	env.expiry = p.clock.After(p.cfg.EnvLifetime, func() { p.onLifetime(env) })
	p.idle = append(p.idle, env)
	p.envs = append(p.envs, env)
	return env
}

// onLifetime enforces the environment lifetime: an idle environment is
// recycled on the spot (replaced to hold the target), a busy one is
// doomed and recycled when its invocation releases it.
func (p *Pool) onLifetime(env *Env) {
	if p.stopped || env.dead {
		return
	}
	if env.busy {
		env.doomed = true
		return
	}
	p.removeIdle(env)
	p.retire(env)
	p.replenish()
}

func (p *Pool) removeIdle(env *Env) {
	for i, e := range p.idle {
		if e == env {
			p.idle = slices.Delete(p.idle, i, i+1)
			return
		}
	}
}

// retire finalizes an environment: idle accrual stops, the expiry timer
// is cancelled, and the /tmp-loss hook fires.
func (p *Pool) retire(env *Env) {
	if env.dead {
		return
	}
	env.dead = true
	if !env.busy {
		env.idleAccrued += p.clock.Now().Sub(env.idleSince)
	}
	env.expiry.Cancel()
	p.recycled++
	if p.onExpire != nil {
		p.onExpire(env.ID)
	}
}

func (p *Pool) replenish() {
	for !p.stopped && p.live() < p.target {
		p.spawn()
	}
}

// Acquire claims the most recently used idle environment (warmest /tmp
// cache first). It returns nil when the pool is exhausted — the caller
// invokes on-demand instead.
func (p *Pool) Acquire() *Env {
	now := p.clock.Now()
	for len(p.idle) > 0 {
		env := p.idle[len(p.idle)-1]
		p.idle = p.idle[:len(p.idle)-1]
		if !now.Before(env.ExpiresAt.Add(-acquireMargin)) {
			// Too close to recycling to be worth handing out.
			p.retire(env)
			p.replenish()
			continue
		}
		env.busy = true
		env.idleAccrued += now.Sub(env.idleSince)
		p.busy++
		if p.busy > p.peakBusy {
			p.peakBusy = p.busy
		}
		p.warmHits++
		p.emit(eventlog.LambdaWarmHit, env.ID, 0, 0, "")
		return env
	}
	p.misses++
	return nil
}

// Release returns a busy environment. Doomed or over-target
// environments retire (losing their /tmp contents); the rest go back on
// the warm stack.
func (p *Pool) Release(env *Env) {
	if env == nil || env.dead || !env.busy {
		return
	}
	env.busy = false
	p.busy--
	if env.doomed || p.live() >= p.target {
		p.retire(env)
		p.replenish()
		return
	}
	env.idleSince = p.clock.Now()
	p.idle = append(p.idle, env)
}

// tick is the target-tracking pass: size the pool for the peak
// concurrency observed over the last interval at the configured
// utilization, clamped to [Min, Max].
func (p *Pool) tick() {
	if p.stopped {
		return
	}
	desired := int(math.Ceil(float64(p.peakBusy) / targetUtilization))
	if desired < p.cfg.Min {
		desired = p.cfg.Min
	}
	if desired > p.cfg.Max {
		desired = p.cfg.Max
	}
	if desired != p.target {
		old := p.target
		p.target = desired
		p.emitResize(old, desired, fmt.Sprintf("peak=%d", p.peakBusy))
		if desired > old {
			p.replenish()
		} else {
			// Shrink from the cold end of the stack; busy environments
			// above target retire on release.
			for p.live() > p.target && len(p.idle) > 0 {
				env := p.idle[0]
				p.idle = p.idle[1:]
				p.retire(env)
			}
		}
	}
	p.peakBusy = p.busy
	p.clock.After(resizeInterval, p.tick)
}

// Stop halts target tracking and environment recycling (end of run).
// Idle accrual is unaffected: IdleBreakdown still reports up to the
// instant the caller bills at.
func (p *Pool) Stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	for _, env := range p.envs {
		env.expiry.Cancel()
	}
}

// IdleBreakdown returns every environment's provisioned-idle time up to
// now, in creation order — the GB-second basis of the idle-rate line
// item.
func (p *Pool) IdleBreakdown(now time.Time) []EnvIdle {
	out := make([]EnvIdle, 0, len(p.envs))
	for _, env := range p.envs {
		idle := env.idleAccrued
		if !env.dead && !env.busy && now.After(env.idleSince) {
			idle += now.Sub(env.idleSince)
		}
		out = append(out, EnvIdle{ID: env.ID, Idle: idle})
	}
	return out
}

// IdleTotal sums IdleBreakdown.
func (p *Pool) IdleTotal(now time.Time) time.Duration {
	var sum time.Duration
	for _, e := range p.IdleBreakdown(now) {
		sum += e.Idle
	}
	return sum
}
