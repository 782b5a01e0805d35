package shard

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"splitserve/internal/cluster"
	"splitserve/internal/hdfs"
	"splitserve/internal/spark/engine"
	"splitserve/internal/workloads"
	"splitserve/internal/workloads/shufflereuse"
)

// engineProbe wraps a workload and records a weak pointer to every
// engine it runs on, wherever the job ends up running. Jobs carry it by
// pointer, so the set can also ask whether a settled job's spec still
// holds its workload.
type engineProbe struct {
	workloads.Workload
	set *probeSet
}

type probeSet struct {
	mu        sync.Mutex
	engines   []weak.Pointer[engine.Cluster]
	workloads []weak.Pointer[engineProbe]
}

func (s *probeSet) wrap(w workloads.Workload) *engineProbe {
	p := &engineProbe{w, s}
	s.workloads = append(s.workloads, weak.Make(p))
	return p
}

func (p *engineProbe) Run(c *engine.Cluster) (*workloads.Report, error) {
	p.set.mu.Lock()
	p.set.engines = append(p.set.engines, weak.Make(c))
	p.set.mu.Unlock()
	return p.Workload.Run(c)
}

// live collects garbage and counts the probed engines still reachable.
func (s *probeSet) live() int {
	runtime.GC()
	n := 0
	for _, w := range s.engines {
		if w.Value() != nil {
			n++
		}
	}
	return n
}

// liveWeak counts the weak pointers whose objects are still reachable.
func liveWeak[T any](ws []weak.Pointer[T]) int {
	n := 0
	for _, w := range ws {
		if w.Value() != nil {
			n++
		}
	}
	return n
}

// tenantOn returns a tenant label that hashes to shard of two.
func tenantOn(shard int) string {
	for i := 0; ; i++ {
		if name := fmt.Sprintf("t%02d", i); ShardOf(name, 2) == shard {
			return name
		}
	}
}

// TestLeakShardedJobEngines: the sharded manager keeps every shard's
// scheduler for the merged report and event stream; no finished job's
// engine or workload may stay reachable through them (the manager's
// config and every shard's included), stolen jobs included. Nor may any
// job: each shard released its job list when it finalized, the jobs it
// migrated away and the ones it injected included. Job structs are
// internal to the cluster package, so each spec carries its own
// CostPick, which only its jobs reach (a stolen job's source and
// destination share it; report rows copy its fields). One busy tenant
// and one light tenant on different shards make the light shard steal
// under queueing.
func TestLeakShardedJobEngines(t *testing.T) {
	busy, light := tenantOn(0), tenantOn(1)
	for _, strategy := range []cluster.Strategy{cluster.StrategyBridge, cluster.StrategyQueue} {
		t.Run(strategy.String(), func(t *testing.T) {
			set := &probeSet{}
			var specs []cluster.JobSpec
			var picks []weak.Pointer[cluster.CostPick]
			for i := 0; i < 12; i++ {
				tenant := busy
				if i%6 == 5 {
					tenant = light
				}
				spec := testSpec(t, tenant, time.Duration(i)*time.Second, 4, 4, 2)
				spec.Workload = set.wrap(spec.Workload)
				spec.Pick = &cluster.CostPick{Policy: "min-cost", Source: "fallback"}
				picks = append(picks, weak.Make(spec.Pick))
				specs = append(specs, spec)
			}
			m, err := New(Config{Shards: 2, Cluster: cluster.Config{
				Jobs: specs, PoolCores: 8, Seed: 5, Strategy: strategy,
			}})
			if err != nil {
				t.Fatal(err)
			}
			jobs := len(specs)
			specs = nil // the test keeps no spec of its own
			rep, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			for m.Clock().Step() {
			}
			if rep.Completed != jobs || len(set.engines) != jobs {
				t.Fatalf("%d of %d jobs completed on %d engines", rep.Completed, jobs, len(set.engines))
			}
			if strategy == cluster.StrategyQueue && rep.Steals == 0 {
				t.Fatal("no job was stolen; the stolen-job path is untested")
			}
			if n := set.live(); n != 0 {
				t.Errorf("%d of %d finished jobs' engines are still reachable (%d steals)", n, len(set.engines), rep.Steals)
			}
			if n := liveWeak(set.workloads); n != 0 {
				t.Errorf("%d of %d settled jobs' workloads are still reachable (%d steals)", n, jobs, rep.Steals)
			}
			if n := liveWeak(picks); n != 0 {
				t.Errorf("%d of %d jobs are still reachable from the finished manager (%d steals)", n, jobs, rep.Steals)
			}
			runtime.KeepAlive(m)
		})
	}
}

// storeProbe wraps a workload and records the namenode its engine writes
// shuffle files to: each shard's own.
type storeProbe struct {
	workloads.Workload
	fss map[*hdfs.Cluster]bool
}

func (p storeProbe) Run(c *engine.Cluster) (*workloads.Report, error) {
	p.fss[c.Store().(*hdfs.Cluster)] = true
	return p.Workload.Run(c)
}

// TestShardedJobsLeaveNoShuffleFiles: on the sharded path every shard's
// namenode ends the day empty, whatever the job count, stolen jobs
// included. Each shard's scheduler drops a job's shuffle directory when
// the job settles there.
func TestShardedJobsLeaveNoShuffleFiles(t *testing.T) {
	job := func() workloads.Workload {
		return shufflereuse.New(shufflereuse.Config{
			Partitions: 4, RowsPerPartition: 50, RowBytes: 16 << 10, Keys: 200, Reuse: 2,
		})
	}
	base, err := cluster.Baseline(job(), 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	busy, light := tenantOn(0), tenantOn(1)
	for _, jobs := range []int{10, 100} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			fss := map[*hdfs.Cluster]bool{}
			var specs []cluster.JobSpec
			for i := 0; i < jobs; i++ {
				tenant := busy
				if i%6 == 5 {
					tenant = light
				}
				specs = append(specs, cluster.JobSpec{
					Workload: storeProbe{job(), fss}, Tenant: tenant, Cores: 4,
					Arrival: time.Duration(i) * time.Second, Baseline: base,
				})
			}
			m, err := New(Config{Shards: 2, Cluster: cluster.Config{
				Jobs: specs, PoolCores: 8, Seed: 5, Strategy: cluster.StrategyQueue,
			}})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			for m.Clock().Step() {
			}
			if rep.Completed != jobs {
				t.Fatalf("%d of %d jobs completed", rep.Completed, jobs)
			}
			if rep.Steals == 0 || len(fss) != 2 {
				t.Fatalf("%d steals onto %d shards' namenodes; the stolen-job path is untested", rep.Steals, len(fss))
			}
			for fs := range fss {
				if n := fs.FileCount(); n != 0 {
					t.Errorf("a shard's namenode holds %d shuffle files after the day (%d steals)", n, rep.Steals)
				}
			}
		})
	}
}
