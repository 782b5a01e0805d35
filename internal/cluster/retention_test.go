package cluster

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"splitserve/internal/spark/engine"
	"splitserve/internal/workloads"
)

// engineProbe wraps a workload and records a weak pointer to every
// engine it runs on, so a test can ask which engines outlive their jobs.
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

// TestLeakFinishedJobEngines: once a job finishes, nothing the scheduler
// keeps for its report — cloud records, network pools, the warm pool, the
// event log — may reach the job's engine. Bridged jobs are the case that
// matters: every Lambda they launch stays in the provider's billing list,
// and its expiry callback and egress pool once led back to the engine.
func TestLeakFinishedJobEngines(t *testing.T) {
	arrivals := make([]time.Duration, 12)
	for i := range arrivals {
		arrivals[i] = time.Duration(i) * 2 * time.Second
	}
	cases := []struct {
		name    string
		cfg     Config
		lambdas bool
	}{
		{"bridge", Config{
			Jobs: testJobs(t, arrivals, 4, 4, 2), PoolCores: 4,
			Strategy: StrategyBridge,
		}, true},
		{"bridge-warmpool", Config{
			Jobs: warmJobs(t, 12), PoolCores: 4,
			Strategy: StrategyBridge, WarmPool: 4, TmpCache: true,
		}, true},
		{"queue", Config{
			Jobs: testJobs(t, arrivals, 4, 4, 2), PoolCores: 4,
			Strategy: StrategyQueue,
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := &probeSet{}
			cfg := tc.cfg
			cfg.Policy, cfg.SLOFactor, cfg.Seed = FairShare(), 3, 5
			for i := range cfg.Jobs {
				cfg.Jobs[i].Workload = engineProbe{cfg.Jobs[i].Workload, set}
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			for s.Clock().Step() {
			}
			if rep.Completed != len(cfg.Jobs) || len(set.engines) != len(cfg.Jobs) {
				t.Fatalf("%d of %d jobs completed on %d engines", rep.Completed, len(cfg.Jobs), len(set.engines))
			}
			if got := len(s.provider.Lambdas()) > 0; got != tc.lambdas {
				t.Fatalf("Lambdas launched: %v, want %v", got, tc.lambdas)
			}
			if n := set.live(); n != 0 {
				t.Errorf("%d of %d finished jobs' engines are still reachable", n, len(set.engines))
			}
			runtime.KeepAlive(s)
		})
	}
}
