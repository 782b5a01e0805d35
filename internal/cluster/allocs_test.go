package cluster

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"splitserve/internal/spark/engine"
	"splitserve/internal/spark/rdd"
	"splitserve/internal/workloads"
	"splitserve/internal/workloads/sparkpi"
)

// tokenPi is SparkPi with one sampled dart per task: the modelled cost,
// and so the virtual time, is that of the full job, while host time goes
// to the simulator rather than to the dart loop. Its π estimate is not
// checked, because one dart cannot make it plausible.
type tokenPi struct{ *sparkpi.Workload }

func newTokenPi(seed uint64) tokenPi {
	return tokenPi{sparkpi.New(sparkpi.Config{
		Darts:               200_000,
		SampledDartsPerTask: 1,
		Partitions:          4,
		CostPerDart:         0.4,
		Seed:                seed,
		ExpectedSLO:         time.Minute,
	})}
}

func (w tokenPi) Run(c *engine.Cluster) (*workloads.Report, error) {
	return workloads.Timed(c, w.Name(), func() (string, int, error) {
		job, err := c.RunJob(w.Plan(rdd.NewContext()), w.Name())
		if err != nil {
			return "", 0, err
		}
		return fmt.Sprintf("%d rows", len(job.Rows())), 1, nil
	})
}

// schedulerAllocsPerJob is the allocation budget of one job's path
// through Scheduler.Run on a token-SparkPi day, report included: arrival,
// admission, the job's engine, executors and Lambdas, its tasks and
// shuffle-free stage, its events, billing and its report row. Measured:
// 153.8 (163.8 while each engine's scheduler made three maps and each stage
// a speculation record; 190.2 while each clock event, each engine's
// instruments and each report row were allocated afresh).
const schedulerAllocsPerJob = 160

// TestSchedulerAllocsPerJobBounded runs a 1,000-job token-SparkPi day
// (2-core jobs every 100 ms at a 16-core pool, shortfalls bridged onto
// Lambdas) and holds Scheduler.Run to a fixed number of allocations per
// job, so a per-job or per-event fixed cost that creeps back shows here
// before it shows in the benchmark's jobs_per_s.
func TestSchedulerAllocsPerJobBounded(t *testing.T) {
	const jobs = 1000
	base, err := Baseline(newTokenPi(1), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]JobSpec, jobs)
	for i := range specs {
		specs[i] = JobSpec{
			Workload: newTokenPi(1 + uint64(i)),
			Cores:    2,
			Arrival:  time.Duration(i) * 100 * time.Millisecond,
			Baseline: base,
		}
	}
	s, err := New(Config{
		Jobs: specs, PoolCores: 16, Policy: FairShare(), Strategy: StrategyBridge, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := s.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != jobs || rep.LambdaUSD == 0 {
		t.Fatalf("premise: %d of %d jobs completed, $%g of Lambdas bridged", rep.Completed, jobs, rep.LambdaUSD)
	}
	perJob := float64(after.Mallocs-before.Mallocs) / jobs
	t.Logf("%.1f allocations per job", perJob)
	if perJob > schedulerAllocsPerJob {
		t.Errorf("Scheduler.Run allocates %.1f objects per job, budget %d", perJob, schedulerAllocsPerJob)
	}
}
