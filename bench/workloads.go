package main

import (
	"fmt"
	"reflect"
	"time"

	"splitserve/internal/cluster"
	"splitserve/internal/perfstat"
	"splitserve/internal/shard"
	"splitserve/internal/spark/engine"
	"splitserve/internal/spark/rdd"
	"splitserve/internal/tracereplay"
	"splitserve/internal/workloads"
	"splitserve/internal/workloads/shufflereuse"
	"splitserve/internal/workloads/sparkpi"
)

// maxSimTime bounds every simulation. The hand-driven traced loop needs
// the same deadline Scheduler.Run uses, so it is set explicitly.
const maxSimTime = 48 * time.Hour

// workload is one benchmark input shape. jobs is the size of one measured
// round; the warm-up runs a tenth of it and the smoke test a fiftieth.
// README.md records why each workload exists.
type workload struct {
	name  string
	jobs  int
	setup func(seed uint64, jobs int, prof *perfstat.Collector) (*sim, error)
}

var allWorkloads = []workload{
	{"steady", 10_000, func(seed uint64, jobs int, prof *perfstat.Collector) (*sim, error) {
		return piStream(seed, jobs, 100*time.Millisecond, prof)
	}},
	{"burst", 3_000, func(seed uint64, jobs int, prof *perfstat.Collector) (*sim, error) {
		return piStream(seed, jobs, 2*time.Millisecond, prof)
	}},
	{"shuffle", 100, shuffleStream},
	{"tenants", 10_000, tenantReplay},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (accepted: %v)", name, names)
}

// sim is one set-up simulation, run exactly once: a single scheduler, or
// the sharded manager for tenants.
type sim struct {
	jobs  int
	sched *cluster.Scheduler
	mgr   *shard.Manager

	// Set-up calls into the program, timed from outside it.
	baselineCalls []call
	newCall       call
}

// call is one timed call into the program.
type call struct {
	start time.Time
	dur   time.Duration
}

func timeCall(start time.Time) call { return call{start, time.Since(start)} }

// baseline runs one cluster.Baseline calibration and records its time.
func (s *sim) baseline(w workloads.Workload, cores int, seed uint64) (time.Duration, error) {
	t0 := time.Now()
	d, err := cluster.Baseline(w, cores, seed)
	s.baselineCalls = append(s.baselineCalls, timeCall(t0))
	if err != nil {
		return 0, fmt.Errorf("baseline: %w", err)
	}
	return d, nil
}

// tokenPi is SparkPi with one real dart per task. The modelled cost comes
// from Darts, so virtual time is that of full SparkPi while host time goes
// to the simulator rather than to the dart loop. Its check is the row
// shape and the modelled dart total; the π estimate is not checked
// because one dart cannot make it plausible.
type tokenPi struct {
	*sparkpi.Workload
	darts      int64
	partitions int
}

func newTokenPi(darts int64, partitions int, seed uint64) *tokenPi {
	return &tokenPi{
		Workload: sparkpi.New(sparkpi.Config{
			Darts:               darts,
			SampledDartsPerTask: 1,
			Partitions:          partitions,
			CostPerDart:         0.4,
			Seed:                seed,
			ExpectedSLO:         time.Minute,
		}),
		darts:      darts,
		partitions: partitions,
	}
}

// Run implements workloads.Workload.
func (w *tokenPi) Run(c *engine.Cluster) (*workloads.Report, error) {
	return workloads.Timed(c, w.Name(), func() (string, int, error) {
		job, err := c.RunJob(w.Plan(rdd.NewContext()), w.Name())
		if err != nil {
			return "", 0, err
		}
		rows := job.Rows()
		if len(rows) != w.partitions {
			return "", 0, fmt.Errorf("token sparkpi: %d rows, want one per partition (%d)", len(rows), w.partitions)
		}
		// sparkpi's row type is unexported; its Total field is the
		// modelled darts the task stands for.
		var total int64
		for _, r := range rows {
			total += reflect.ValueOf(r).FieldByName("Total").Int()
		}
		if want := w.darts / int64(w.partitions) * int64(w.partitions); total != want {
			return "", 0, fmt.Errorf("token sparkpi: %d modelled darts, want %d", total, want)
		}
		return fmt.Sprintf("%d modelled darts", total), 1, nil
	})
}

// piStream is the v1 loadbench shape with token darts: 2-core jobs of
// 200k modelled darts in 4 partitions arriving every gap at a 16-core
// fair-share pool, with any shortfall bridged onto Lambdas.
func piStream(seed uint64, jobs int, gap time.Duration, prof *perfstat.Collector) (*sim, error) {
	const cores = 2
	s := &sim{jobs: jobs}
	base, err := s.baseline(newTokenPi(200_000, 4, seed), cores, seed)
	if err != nil {
		return nil, err
	}
	specs := make([]cluster.JobSpec, jobs)
	for i := range specs {
		specs[i] = cluster.JobSpec{
			Workload: newTokenPi(200_000, 4, seed+uint64(i)),
			Cores:    cores,
			Arrival:  time.Duration(i) * gap,
			Baseline: base,
		}
	}
	return s, s.newScheduler(cluster.Config{
		Jobs:       specs,
		PoolCores:  16,
		Policy:     cluster.FairShare(),
		Strategy:   cluster.StrategyBridge,
		Seed:       seed,
		MaxSimTime: maxSimTime,
		Prof:       prof,
	})
}

// shuffleStream sends shuffle-heavy jobs, each a 50 MiB shuffle read three
// times, every 200 ms at a 4-core pool. The shortfall is bridged onto an
// 8-environment warm pool whose /tmp cache serves repeat reads.
func shuffleStream(seed uint64, jobs int, prof *perfstat.Collector) (*sim, error) {
	const cores = 4
	job := func() *shufflereuse.Workload {
		return shufflereuse.New(shufflereuse.Config{
			Partitions:       cores,
			RowsPerPartition: 200,
			RowBytes:         64 << 10,
			Keys:             cores * 200,
			Reuse:            3,
		})
	}
	s := &sim{jobs: jobs}
	base, err := s.baseline(job(), cores, seed)
	if err != nil {
		return nil, err
	}
	specs := make([]cluster.JobSpec, jobs)
	for i := range specs {
		specs[i] = cluster.JobSpec{
			Workload: job(),
			Cores:    cores,
			Arrival:  time.Duration(i) * 200 * time.Millisecond,
			Baseline: base,
		}
	}
	return s, s.newScheduler(cluster.Config{
		Jobs:       specs,
		PoolCores:  cores,
		Policy:     cluster.FIFO(),
		Strategy:   cluster.StrategyBridge,
		WarmPool:   8,
		TmpCache:   true,
		Seed:       seed,
		MaxSimTime: maxSimTime,
		Prof:       prof,
	})
}

func (s *sim) newScheduler(cfg cluster.Config) error {
	t0 := time.Now()
	sched, err := cluster.New(cfg)
	s.newCall = timeCall(t0)
	if err != nil {
		return fmt.Errorf("cluster.New: %w", err)
	}
	s.sched = sched
	return nil
}

// tenantRuntimeGrid is the replay rule's runtime bucket: jobs whose traced
// runtimes round to the same 250 ms bucket share one baseline.
const tenantRuntimeGrid = 250 * time.Millisecond

// tenantReplay replays a synthetic Zipf multi-tenant trace through the
// sharded control plane with work stealing. Each row becomes a token
// SparkPi job sized by the replay rule: one wave of `cores` tasks at the
// calibrated 0.4 µs/dart rate, so its full-provisioning time tracks the
// bucketed runtime. The rule is applied here rather than through
// tracereplay.Specs because Specs throws 400k real darts per job.
func tenantReplay(seed uint64, jobs int, prof *perfstat.Collector) (*sim, error) {
	tr, err := tracereplay.Generate(tracereplay.GenConfig{
		Tenants:     16,
		Jobs:        jobs,
		MeanGap:     400 * time.Millisecond,
		MeanRuntime: 3 * time.Second,
		Seed:        seed,
	})
	if err != nil {
		return nil, err
	}
	type shape struct {
		bucket time.Duration
		cores  int
	}
	replayJob := func(sh shape) *tokenPi {
		darts := int64(float64(sh.cores) * sh.bucket.Seconds() * 5e7 / 0.4)
		return newTokenPi(darts, sh.cores, 3)
	}
	s := &sim{jobs: jobs}
	baselines := map[shape]time.Duration{}
	specs := make([]cluster.JobSpec, len(tr.Rows))
	for i, row := range tr.Rows {
		sh := shape{row.Runtime.Round(tenantRuntimeGrid), row.Cores}
		if sh.bucket < tenantRuntimeGrid {
			sh.bucket = tenantRuntimeGrid
		}
		base, ok := baselines[sh]
		if !ok {
			if base, err = s.baseline(replayJob(sh), sh.cores, seed); err != nil {
				return nil, err
			}
			baselines[sh] = base
		}
		specs[i] = cluster.JobSpec{
			Workload: replayJob(sh),
			Tenant:   row.Tenant,
			Arrival:  row.Arrival,
			Cores:    row.Cores,
			Baseline: base,
		}
	}
	t0 := time.Now()
	s.mgr, err = shard.New(shard.Config{
		Shards: 4,
		Cluster: cluster.Config{
			Jobs:       specs,
			PoolCores:  32,
			Policy:     cluster.FairShare(),
			Strategy:   cluster.StrategyQueue,
			Seed:       seed,
			MaxSimTime: maxSimTime,
			Prof:       prof,
		},
	})
	s.newCall = timeCall(t0)
	if err != nil {
		return nil, fmt.Errorf("shard.New: %w", err)
	}
	return s, nil
}
