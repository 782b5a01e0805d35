package cluster

import (
	"testing"
	"time"

	"splitserve/internal/spark/engine"
	"splitserve/internal/workloads"
)

// panicking wraps a workload and panics inside Run: before the engine job
// when early, otherwise after it completes — that is, on a resume from
// the run-queue rather than on the first one.
type panicking struct {
	workloads.Workload
	early bool
}

type workloadPanic struct{}

func (p panicking) Run(c *engine.Cluster) (*workloads.Report, error) {
	if !p.early {
		if _, err := p.Workload.Run(c); err != nil {
			return nil, err
		}
	}
	panic(workloadPanic{})
}

// TestWorkloadPanicReachesCaller: a panic inside a workload re-panics out
// of Scheduler.Run, where the caller can recover it, whether it happens on
// the workload's first resume or on a later one.
func TestWorkloadPanicReachesCaller(t *testing.T) {
	base, err := Baseline(stressPi(), 2, 9)
	if err != nil {
		t.Fatalf("Baseline: %v", err)
	}
	for _, early := range []bool{true, false} {
		specs := []JobSpec{
			{Name: "sparkpi", Workload: stressPi(), Cores: 2, Baseline: base},
			{Name: "panic", Workload: panicking{stressPi(), early}, Cores: 2, Baseline: base, Arrival: time.Second},
		}
		s, err := New(Config{Jobs: specs, PoolCores: 4, SLOFactor: 50, Seed: 17})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		func() {
			defer func() {
				if r := recover(); r != (workloadPanic{}) {
					t.Errorf("early=%v: recovered %v, want the workload's panic value", early, r)
				}
			}()
			s.Run()
		}()
	}
}
