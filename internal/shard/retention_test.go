package shard

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"splitserve/internal/cluster"
	"splitserve/internal/spark/engine"
	"splitserve/internal/workloads"
)

// engineProbe wraps a workload and records a weak pointer to every
// engine it runs on, wherever the job ends up running.
type engineProbe struct {
	workloads.Workload
	set *probeSet
}

type probeSet struct {
	mu      sync.Mutex
	engines []weak.Pointer[engine.Cluster]
}

func (p engineProbe) Run(c *engine.Cluster) (*workloads.Report, error) {
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

// TestLeakShardedJobEngines: the sharded manager keeps every shard's
// scheduler for the merged report and event stream; no finished job's
// engine may stay reachable through them, stolen jobs included. One busy
// tenant and one light tenant on different shards make the light shard
// steal under queueing.
func TestLeakShardedJobEngines(t *testing.T) {
	tenantOn := func(shard int) string {
		for i := 0; ; i++ {
			if name := fmt.Sprintf("t%02d", i); ShardOf(name, 2) == shard {
				return name
			}
		}
	}
	busy, light := tenantOn(0), tenantOn(1)
	for _, strategy := range []cluster.Strategy{cluster.StrategyBridge, cluster.StrategyQueue} {
		t.Run(strategy.String(), func(t *testing.T) {
			set := &probeSet{}
			var specs []cluster.JobSpec
			for i := 0; i < 12; i++ {
				tenant := busy
				if i%6 == 5 {
					tenant = light
				}
				spec := testSpec(t, tenant, time.Duration(i)*time.Second, 4, 4, 2)
				spec.Workload = engineProbe{spec.Workload, set}
				specs = append(specs, spec)
			}
			m, err := New(Config{Shards: 2, Cluster: cluster.Config{
				Jobs: specs, PoolCores: 8, Seed: 5, Strategy: strategy,
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
			if rep.Completed != len(specs) || len(set.engines) != len(specs) {
				t.Fatalf("%d of %d jobs completed on %d engines", rep.Completed, len(specs), len(set.engines))
			}
			if strategy == cluster.StrategyQueue && rep.Steals == 0 {
				t.Fatal("no job was stolen; the stolen-job path is untested")
			}
			if n := set.live(); n != 0 {
				t.Errorf("%d of %d finished jobs' engines are still reachable (%d steals)", n, len(set.engines), rep.Steals)
			}
			runtime.KeepAlive(m)
		})
	}
}
