package engine

// allocManager is the ExecutorAllocationManager: in static mode it pins
// the executor target at Alloc.Max from the start; in dynamic mode it
// watches the task backlog, ramping the requested executor count
// exponentially (1, 2, 4, ...) while backlog persists, and releases
// executors idle past the idle timeout — Spark's dynamic allocation, which
// the `Spark r/R autoscale` baseline exercises.
type allocManager struct {
	c        *Cluster
	target   int
	addBatch int
	ticking  bool
	idleGen  map[string]int // executor ID -> idle epoch (invalidates timers)
}

func newAllocManager(c *Cluster) *allocManager {
	return &allocManager{c: c, addBatch: 1, idleGen: make(map[string]int)}
}

func (a *allocManager) cfg() AllocConfig { return a.c.cfg.Alloc }

func (a *allocManager) start() {
	switch a.cfg().Mode {
	case AllocStatic:
		a.target = a.cfg().Max
		a.c.cfg.Backend.SetDesiredTotal(a.target)
	case AllocDynamic:
		a.target = a.cfg().Min
		a.c.cfg.Backend.SetDesiredTotal(a.target)
	}
	a.c.insts.targetExecs.Set(float64(a.target))
}

func (a *allocManager) onJobStart() {
	if a.cfg().Mode == AllocDynamic && !a.ticking {
		a.ticking = true
		a.scheduleTick()
	}
}

func (a *allocManager) onJobEnd() {
	a.ticking = false
	a.addBatch = 1
}

func (a *allocManager) scheduleTick() {
	a.c.cfg.Clock.After(allocRampInterval, func() {
		if !a.ticking {
			return
		}
		a.tick()
		a.scheduleTick()
	})
}

// tick evaluates the backlog and ramps the executor target.
func (a *allocManager) tick() {
	if a.c.job == nil || a.c.job.done {
		return
	}
	if a.c.sched.backlog() {
		if a.target < a.cfg().Max {
			a.target += a.addBatch
			if a.target > a.cfg().Max {
				a.target = a.cfg().Max
			}
			a.addBatch *= 2
			a.c.insts.scaleUp.Inc()
			a.c.insts.targetExecs.Set(float64(a.target))
			a.c.cfg.Backend.SetDesiredTotal(a.target)
		}
	} else {
		a.addBatch = 1
	}
}

// onBacklogChange arms idle-release timers for executors that just went
// idle (dynamic mode only).
func (a *allocManager) onBacklogChange() {
	if a.cfg().Mode != AllocDynamic {
		return
	}
	for _, id := range a.c.order {
		e := a.c.execs[id]
		if e.State != ExecFree {
			continue
		}
		id := id
		a.idleGen[id]++
		gen := a.idleGen[id]
		idleAt := e.IdleSince
		a.c.cfg.Clock.After(allocIdleTimeout, func() {
			ex := a.c.execs[id]
			if ex == nil || ex.State != ExecFree || a.idleGen[id] != gen {
				return
			}
			if !ex.IdleSince.Equal(idleAt) {
				return // was busy in between
			}
			if a.target > a.cfg().Min {
				a.target--
			}
			a.c.insts.scaleDown.Inc()
			a.c.insts.targetExecs.Set(float64(a.target))
			a.c.cfg.Backend.ReleaseIdle(ex)
		})
	}
}
