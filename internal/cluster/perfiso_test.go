package cluster

import (
	"bytes"
	"testing"
	"time"

	"splitserve/internal/perfstat"
	"splitserve/internal/workloads"
	"splitserve/internal/workloads/sparkpi"
)

// TestPerfstatDeterminismIsolation is the contract that makes perfstat safe
// to ship on by default: the collector reads simulation state but never
// schedules, emits, or draws randomness, so a same-seed run with profiling
// enabled must produce a byte-identical report and event log. Only the
// perfstat snapshot itself — wall-clock data, marked "deterministic": false
// — is allowed to vary between runs.
func TestPerfstatDeterminismIsolation(t *testing.T) {
	run := func(prof *perfstat.Collector) (report, log []byte) {
		arrivals, err := ParseArrivals("poisson:6s", 5, 1)
		if err != nil {
			t.Fatalf("ParseArrivals: %v", err)
		}
		s, err := New(Config{
			Jobs:      testJobs(t, arrivals, 4, 8, 4),
			PoolCores: 4,
			Policy:    FairShare(),
			Strategy:  StrategyBridge,
			SLOFactor: 2,
			Seed:      7,
			Prof:      prof,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		report, err = rep.JSON()
		if err != nil {
			t.Fatalf("Report.JSON: %v", err)
		}
		log, err = s.Events().JSONL()
		if err != nil {
			t.Fatalf("Events.JSONL: %v", err)
		}
		return report, log
	}

	plainRep, plainLog := run(nil)
	prof := perfstat.New()
	profRep, profLog := run(prof)

	if len(plainRep) == 0 || len(plainLog) == 0 {
		t.Fatal("baseline run produced empty report or event log")
	}
	if !bytes.Equal(plainRep, profRep) {
		t.Error("enabling perfstat changed the report bytes")
	}
	if !bytes.Equal(plainLog, profLog) {
		t.Error("enabling perfstat changed the event log bytes")
	}

	snap := prof.Snapshot()
	if snap.Deterministic {
		t.Error("perfstat snapshot must carry deterministic=false")
	}
	if snap.EventsFired == 0 {
		t.Error("profiled run recorded no fired events")
	}
	if snap.StepWall.Count == 0 {
		t.Error("profiled run recorded no step-wall observations")
	}
	if snap.Yields == 0 {
		t.Error("profiled run recorded no workload yields")
	}
	if snap.HandoffWall.Count == 0 {
		t.Error("profiled run recorded no workload handoffs")
	}
	buf, err := snap.JSON()
	if err != nil {
		t.Fatalf("snapshot JSON: %v", err)
	}
	if !bytes.Contains(buf, []byte(`"deterministic": false`)) {
		t.Fatalf("snapshot JSON missing deterministic:false marker:\n%s", buf)
	}
}

// stressPi is the cheapest plausibility-passing sparkpi (10k real darts
// per task at the fixed seed).
func stressPi() workloads.Workload {
	return sparkpi.New(sparkpi.Config{
		Darts:               100_000,
		SampledDartsPerTask: 10_000,
		Partitions:          2,
		CostPerDart:         0.4,
		Seed:                3,
	})
}

func stressBurst(t *testing.T, n int, maxSim time.Duration, prof *perfstat.Collector) *Report {
	t.Helper()
	base, err := Baseline(stressPi(), 2, 9)
	if err != nil {
		t.Fatalf("Baseline: %v", err)
	}
	specs := make([]JobSpec, n)
	for i := range specs {
		specs[i] = JobSpec{Name: "sparkpi", Workload: stressPi(), Cores: 2, Baseline: base}
	}
	s, err := New(Config{
		Jobs:       specs,
		PoolCores:  2 * n, // capacity for the whole burst: stress is concurrency, not contention
		SLOFactor:  50,
		Seed:       17,
		MaxSimTime: maxSim,
		Prof:       prof,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

// TestRunQueueStress10kConcurrent drives the coroutine run-queue at scale,
// also under the race detector (make check runs the suite with -race).
// Two phases:
//
//   - burst: ten thousand jobs arrive at the same instant and all ten
//     thousand workload coroutines are alive and parked concurrently. The
//     sim-time deadline cuts the run after several clock steps — before
//     the task/network phase, whose max-min fair-share recomputation is
//     quadratic in concurrent flows and would dominate the test for no
//     extra scheduling coverage — so the abort path then stops all 10k
//     parked coroutines one at a time.
//   - drain: a smaller burst runs to completion, so resumable engines flow
//     through the batched run-queue in bulk and the depth gauge sees the
//     backlog.
func TestRunQueueStress10kConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("stress run skipped in -short mode")
	}

	t.Run("burst10k", func(t *testing.T) {
		const n = 10_000
		prof := perfstat.New()
		rep := stressBurst(t, n, time.Second, prof)
		// The deadline fires before any job can finish: every job must have
		// started, parked, and been aborted at Finalize.
		if rep.Completed != 0 || rep.Failed != n {
			t.Fatalf("completed=%d failed=%d, want 0/%d (sim-time cutoff)",
				rep.Completed, rep.Failed, n)
		}
		snap := prof.Snapshot()
		if snap.Yields < n {
			t.Errorf("yields %d < %d: not every workload parked", snap.Yields, n)
		}
		if snap.HandoffWall.Count < uint64(n) {
			t.Errorf("handoff observations %d < %d: handoff timing lost in batching",
				snap.HandoffWall.Count, n)
		}
	})

	t.Run("drain1k", func(t *testing.T) {
		const n = 1_000
		prof := perfstat.New()
		rep := stressBurst(t, n, 0, prof)
		if rep.Completed != n {
			t.Fatalf("completed %d of %d jobs (failed %d, shed %d)",
				rep.Completed, n, rep.Failed, rep.Shed)
		}
		snap := prof.Snapshot()
		if snap.Yields < n {
			t.Errorf("yields %d < %d: not every job parked through the run queue", snap.Yields, n)
		}
		if snap.HandoffWall.Count < uint64(2*n) {
			t.Errorf("handoff observations %d < %d: want at least one park and one finish per job",
				snap.HandoffWall.Count, 2*n)
		}
		if snap.RunQueue.Samples == 0 {
			t.Error("run-queue depth gauge recorded no samples")
		}
		if snap.RunQueue.Max < n/2 {
			t.Errorf("run-queue depth high-water %d never reflected the %d-job burst",
				snap.RunQueue.Max, n)
		}
	})
}
