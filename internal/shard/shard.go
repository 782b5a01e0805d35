// Package shard is the multi-tenant sharded control plane above
// internal/cluster: it partitions a tenant-labelled job stream across N
// independent scheduler instances ("shards"), each owning an equal slice
// of the core pool, and drives them in lockstep on one shared virtual
// clock. Tenants map to shards by a deterministic hash (ShardOf), so the
// same trace always lands on the same shards; between clock steps a
// work-stealing pass migrates queued jobs from saturated shards to
// neighbors with idle cores. The manager merges the shards' reports into
// one per-shard / per-tenant rollup and their event streams into one
// time-ordered log, so the same seed and shard count always yield
// byte-identical output.
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"splitserve/internal/cluster"
	"splitserve/internal/eventlog"
	"splitserve/internal/simclock"
)

// ShardOf deterministically maps a tenant label to a shard index in
// [0, shards): FNV-1a over the label, mod the shard count. The empty
// label (untenanted jobs) hashes like any other string, so single-tenant
// streams still land on one well-defined shard.
func ShardOf(tenant string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(tenant))
	return int(h.Sum64() % uint64(shards))
}

// Divisors returns the ascending divisors of n — the accepted shard
// counts for an n-core pool (CLI validation wants the list in errors).
func Divisors(n int) []int {
	var out []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
		}
	}
	return out
}

// Config assembles a Manager.
type Config struct {
	// Shards is the number of independent scheduler instances. The
	// cluster core pool is split evenly: Cluster.PoolCores must be
	// divisible by Shards with at least one core per shard.
	Shards int
	// Cluster is the scheduler template every shard is built from. Jobs
	// is the global tenant-labelled stream (the manager partitions it);
	// PoolCores is the total pool. Clock and IDPrefix are owned by the
	// manager and must be left zero.
	Cluster cluster.Config
}

// shardState is one scheduler instance plus its steal accounting.
type shardState struct {
	idx int
	// sched is nil for a shard whose tenant partition is empty — it has
	// no jobs, schedules nothing, and (having no pool) receives no
	// stolen work; its report line shows zero jobs.
	sched     *cluster.Scheduler
	poolCores int
	submitted int // jobs hashed here (before stealing)
	stealsOut int
	stealsIn  int
}

// assignRec is one upfront tenant→shard placement, emitted as a
// shard_assign event at the job's arrival instant.
type assignRec struct {
	arrival time.Duration
	appID   string
	tenant  string
	cores   int
	shard   int
}

// Manager owns N shard schedulers on one shared clock. Build with New,
// drive with Run (once); Events returns the merged stream afterwards.
type Manager struct {
	cfg     Config
	clock   *simclock.Clock
	bus     *eventlog.Bus
	shards  []*shardState
	assigns []assignRec
	// free is the steal pass's scratch: each shard's planned free cores.
	free   []int
	maxSim time.Duration
	ran    bool
}

// New validates cfg, partitions the job stream by tenant hash, and builds
// one scheduler per non-empty shard — all on one shared clock so they
// advance in lockstep.
func New(cfg Config) (*Manager, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: Shards must be >= 1 (got %d)", cfg.Shards)
	}
	if len(cfg.Cluster.Jobs) == 0 {
		return nil, errors.New("shard: no jobs")
	}
	if cfg.Cluster.PoolCores < 1 {
		return nil, errors.New("shard: Cluster.PoolCores must be >= 1")
	}
	if cfg.Cluster.PoolCores%cfg.Shards != 0 {
		return nil, fmt.Errorf("shard: %d shards do not divide the %d-core pool evenly (accepted shard counts: %v)",
			cfg.Shards, cfg.Cluster.PoolCores, Divisors(cfg.Cluster.PoolCores))
	}
	if cfg.Cluster.Clock != nil {
		return nil, errors.New("shard: Cluster.Clock is owned by the manager; leave it nil")
	}
	if cfg.Cluster.IDPrefix != "" {
		return nil, errors.New("shard: Cluster.IDPrefix is owned by the manager; leave it empty")
	}
	if cfg.Cluster.MaxSimTime == 0 {
		cfg.Cluster.MaxSimTime = 48 * time.Hour
	}

	clock := simclock.New(simclock.Epoch)
	m := &Manager{
		cfg:    cfg,
		clock:  clock,
		bus:    eventlog.NewBus(simclock.Epoch),
		free:   make([]int, cfg.Shards),
		maxSim: cfg.Cluster.MaxSimTime,
	}
	cfg.Cluster.Prof.ObserveBus(m.bus)

	// Partition the stream: per-shard slices keep the global submission
	// order, so each shard numbers its jobs j000, j001, ... in the order
	// the tenant stream produced them.
	parts := make([][]cluster.JobSpec, cfg.Shards)
	for _, spec := range cfg.Cluster.Jobs {
		if spec.Workload == nil {
			return nil, errors.New("shard: job has no workload")
		}
		if spec.Name == "" {
			spec.Name = spec.Workload.Name()
		}
		sh := ShardOf(spec.Tenant, cfg.Shards)
		prefix := ""
		if cfg.Shards > 1 {
			prefix = fmt.Sprintf("s%d-", sh)
		}
		m.assigns = append(m.assigns, assignRec{
			arrival: spec.Arrival,
			appID:   cluster.AppID(prefix, len(parts[sh]), spec.Name),
			tenant:  spec.Tenant,
			cores:   spec.Cores,
			shard:   sh,
		})
		parts[sh] = append(parts[sh], spec)
	}
	// The shards own the specs from here; a settled job drops its
	// workload, which the manager's copy would otherwise keep.
	m.cfg.Cluster.Jobs = nil

	perShardCores := cfg.Cluster.PoolCores / cfg.Shards
	for i := 0; i < cfg.Shards; i++ {
		st := &shardState{idx: i, poolCores: perShardCores, submitted: len(parts[i])}
		if len(parts[i]) > 0 {
			scfg := cfg.Cluster
			scfg.Jobs = parts[i]
			scfg.PoolCores = perShardCores
			scfg.Clock = clock
			if cfg.Shards > 1 {
				scfg.IDPrefix = fmt.Sprintf("s%d-", i)
			}
			sched, err := cluster.New(scfg)
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			st.sched = sched
		}
		m.shards = append(m.shards, st)
	}

	// Placement events fire at each job's arrival instant via the shared
	// clock, sorted so equal-arrival jobs keep submission order. They only
	// touch the manager's bus, so registering these timers never perturbs
	// the shards' own streams (the shards=1 byte-identity contract).
	sort.SliceStable(m.assigns, func(a, b int) bool { return m.assigns[a].arrival < m.assigns[b].arrival })
	return m, nil
}

// Clock exposes the shared virtual clock (tests).
func (m *Manager) Clock() *simclock.Clock { return m.clock }

// Run plays the whole stream to completion across all shards: start every
// shard, drive the shared clock step by step — pumping each shard and
// running a stealing pass after every step — then finalize the shards and
// merge their reports. It may be called once.
func (m *Manager) Run() (*Report, error) {
	if m.ran {
		return nil, errors.New("shard: Run may only be called once")
	}
	m.ran = true
	for _, st := range m.shards {
		if st.sched == nil {
			continue
		}
		if err := st.sched.Start(); err != nil {
			return nil, err
		}
	}
	for _, a := range m.assigns {
		a := a
		m.clock.At(simclock.Epoch.Add(a.arrival), func() {
			ev := eventlog.Ev(eventlog.ShardAssign)
			ev.App = a.appID
			ev.Exec = a.tenant
			ev.Cores = a.cores
			ev.Note = fmt.Sprintf("shard=%d", a.shard)
			m.bus.Emit(m.clock.Now(), ev)
		})
	}
	// Each timer holds its own copy of its record.
	m.assigns = nil

	deadline := simclock.Epoch.Add(m.maxSim)
	for !m.done() && m.clock.Now().Before(deadline) {
		if !m.clock.Step() {
			break
		}
		for _, st := range m.shards {
			if st.sched != nil {
				st.sched.Pump()
			}
		}
		if m.cfg.Shards > 1 {
			m.stealPass()
		}
	}

	reports := make([]*cluster.Report, len(m.shards))
	for i, st := range m.shards {
		if st.sched != nil {
			reports[i] = st.sched.Finalize()
		}
	}
	rep := m.buildReport(reports)
	for _, t := range rep.PerTenant {
		ev := eventlog.Ev(eventlog.TenantReport)
		ev.Exec = t.Tenant
		ev.Cores = t.Jobs
		ev.Note = fmt.Sprintf("completed=%d violations=%d attainment=%.4f", t.Completed, t.SLOViolations, t.SLOAttainment)
		m.bus.Emit(m.clock.Now(), ev)
	}
	return rep, nil
}

func (m *Manager) done() bool {
	for _, st := range m.shards {
		if st.sched != nil && !st.sched.Done() {
			return false
		}
	}
	return true
}

// stealPass migrates queued jobs from saturated shards to shards with
// idle cores. A shard is saturated for its oldest queued (non-stolen) job
// when its free pool cannot cover that job's demand; the destination is
// the shard with the most free cores that can (ring order from the source
// breaks ties). Planned-free accounting within the pass keeps two sources
// from over-committing the same destination before its scheduler runs.
// Pools change only when a scheduler runs, never inside the pass (Steal
// and Inject just kick), so the pools are probed once, when the first
// stealable job turns up.
func (m *Manager) stealPass() {
	n := len(m.shards)
	var free []int
	for i, st := range m.shards {
		if st.sched == nil {
			continue
		}
		for {
			demand, ok := st.sched.StealableDemand()
			if !ok {
				break
			}
			if free == nil {
				free = m.probeFree()
			}
			if free[i] >= demand {
				break
			}
			best := -1
			for d := 1; d < n; d++ {
				c := (i + d) % n
				if m.shards[c].sched == nil {
					continue
				}
				if free[c] >= demand && (best == -1 || free[c] > free[best]) {
					best = c
				}
			}
			if best == -1 {
				break
			}
			spec, arrivedAt, ok := st.sched.Steal()
			if !ok {
				break
			}
			appID := m.shards[best].sched.Inject(spec, arrivedAt)
			free[best] -= demand
			st.stealsOut++
			m.shards[best].stealsIn++
			ev := eventlog.Ev(eventlog.ShardSteal)
			ev.App = appID
			ev.Exec = spec.Tenant
			ev.Cores = demand
			ev.Note = fmt.Sprintf("s%d->s%d", i, best)
			m.bus.Emit(m.clock.Now(), ev)
		}
	}
}

// probeFree fills the steal pass's scratch slice with each shard's free
// pool cores and returns it.
func (m *Manager) probeFree() []int {
	for i, st := range m.shards {
		if st.sched != nil {
			m.free[i] = st.sched.PoolFree()
		}
	}
	return m.free
}

// Events returns the merged event stream: the manager's own placement /
// steal / tenant events plus every shard's log, k-way merged by
// timestamp by eventlog.Merge, in one copy straight from the buses. At
// equal timestamps the manager's stream sorts first, then shards in index
// order — each input is time-nondecreasing, so the merge is a stable
// interleave and the same run always serialises to the same bytes.
func (m *Manager) Events() []eventlog.Event {
	buses := make([]*eventlog.Bus, 0, len(m.shards)+1)
	buses = append(buses, m.bus)
	for _, st := range m.shards {
		if st.sched != nil {
			buses = append(buses, st.sched.Events())
		}
	}
	return eventlog.Merge(buses...)
}
