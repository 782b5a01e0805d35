package cluster

import (
	"testing"
	"time"

	"splitserve/internal/simclock"
)

// The scheduler keeps per-phase job counts (Scheduler.inPhase) instead of
// rescanning its working set. These tests drive the Start/Step/Pump loop
// by hand and, after every step, recount the phases of every job the
// scheduler knows to check the counts never drift: through steals and
// injections, deadline-admission sheds, and Finalize's failures.

// checkPhaseCounts fails t unless s.inPhase matches a recount of s.jobs.
func checkPhaseCounts(t *testing.T, s *Scheduler, where string) {
	t.Helper()
	var want [numPhases]int
	for _, j := range s.jobs {
		want[j.phase]++
	}
	if s.inPhase != want {
		t.Fatalf("%s at %v: inPhase = %v, recount = %v", where, s.clock.Since(simclock.Epoch), s.inPhase, want)
	}
}

// drivePhaseChecked runs scheds, which share clock, in lockstep until all
// are done or maxSim passes, calling between (if non-nil) after every
// step, then finalizes them. It checks every scheduler's phase counts
// after every step, every between call and Finalize.
func drivePhaseChecked(t *testing.T, clock *simclock.Clock, maxSim time.Duration, between func(), scheds ...*Scheduler) {
	t.Helper()
	for _, s := range scheds {
		if err := s.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		checkPhaseCounts(t, s, "start")
	}
	allDone := func() bool {
		for _, s := range scheds {
			if !s.Done() {
				return false
			}
		}
		return true
	}
	deadline := simclock.Epoch.Add(maxSim)
	for !allDone() && clock.Now().Before(deadline) {
		if !clock.Step() {
			break
		}
		for _, s := range scheds {
			s.Pump()
			checkPhaseCounts(t, s, "step")
		}
		if between != nil {
			between()
			for _, s := range scheds {
				checkPhaseCounts(t, s, "between steps")
			}
		}
	}
	for _, s := range scheds {
		s.Finalize()
		checkPhaseCounts(t, s, "finalize")
		if !s.Done() {
			t.Errorf("scheduler not done after Finalize: inPhase = %v", s.inPhase)
		}
	}
}

// TestPhaseCountsThroughStealAndInject runs an overloaded and an idle
// scheduler on one shared clock and migrates queued jobs from the first
// to the second whenever the second can host them, the way the sharded
// control plane's steal pass does.
func TestPhaseCountsThroughStealAndInject(t *testing.T) {
	clock := simclock.New(simclock.Epoch)
	arrivals := []time.Duration{0, time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second}
	busy, err := New(Config{
		Jobs:      testJobs(t, arrivals, 4, 8, 2),
		PoolCores: 4,
		Strategy:  StrategyQueue,
		Clock:     clock,
		IDPrefix:  "s0-",
		Seed:      1,
	})
	if err != nil {
		t.Fatalf("New busy: %v", err)
	}
	idle, err := New(Config{
		Jobs:      testJobs(t, []time.Duration{0}, 4, 8, 2),
		PoolCores: 8,
		Strategy:  StrategyQueue,
		Clock:     clock,
		IDPrefix:  "s1-",
		Seed:      2,
	})
	if err != nil {
		t.Fatalf("New idle: %v", err)
	}
	steals := 0
	// One steal per step at most: the injected job is not granted cores
	// until idle's next pass, so idle's free count cannot gate a second.
	steal := func() {
		demand, ok := busy.StealableDemand()
		if !ok || busy.PoolFree() >= demand || idle.PoolFree() < demand {
			return
		}
		spec, arrivedAt, ok := busy.Steal()
		if !ok {
			t.Fatal("Steal failed after StealableDemand offered a job")
		}
		checkPhaseCounts(t, busy, "after Steal")
		idle.Inject(spec, arrivedAt)
		steals++
	}
	drivePhaseChecked(t, clock, 48*time.Hour, steal, busy, idle)
	if steals == 0 {
		t.Fatal("no job was stolen; the test does not exercise Steal/Inject")
	}
	if got := busy.inPhase[jobMigrated]; got != steals {
		t.Errorf("busy scheduler has %d migrated jobs, want %d", got, steals)
	}
	if got, want := idle.inPhase[jobDone], 1+steals; got != want {
		t.Errorf("idle scheduler completed %d jobs, want %d (its own plus the stolen)", got, want)
	}
}

// TestPhaseCountsThroughShedding overloads a queueing pool under deadline
// admission, which delays and then sheds jobs.
func TestPhaseCountsThroughShedding(t *testing.T) {
	clock := simclock.New(simclock.Epoch)
	s, err := New(Config{
		Jobs:      testJobs(t, []time.Duration{0, time.Second, 2 * time.Second}, 4, 8, 4),
		PoolCores: 4,
		Policy:    FairShare(),
		Strategy:  StrategyQueue,
		SLOFactor: 1.2,
		Admission: AdmissionDeadline,
		Clock:     clock,
		Seed:      1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	drivePhaseChecked(t, clock, 48*time.Hour, nil, s)
	if s.inPhase[jobShed] == 0 {
		t.Fatalf("no job was shed; inPhase = %v", s.inPhase)
	}
}

// TestPhaseCountsThroughCutoff ends a bridged day at MaxSimTime while
// jobs are still parked or queued, so Finalize aborts and fails them.
func TestPhaseCountsThroughCutoff(t *testing.T) {
	const cores = 4
	base, err := Baseline(abortPageRank(), cores, 9)
	if err != nil {
		t.Fatalf("Baseline: %v", err)
	}
	var specs []JobSpec
	for i := 0; i < 8; i++ {
		specs = append(specs, JobSpec{
			Name: "pagerank", Workload: abortPageRank(), Baseline: base,
			Cores: cores, Arrival: time.Duration(i) * 2 * time.Second,
		})
	}
	clock := simclock.New(simclock.Epoch)
	s, err := New(Config{
		Jobs:       specs,
		PoolCores:  8,
		Strategy:   StrategyBridge,
		Clock:      clock,
		Seed:       5,
		MaxSimTime: abortCutoff,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	drivePhaseChecked(t, clock, abortCutoff, nil, s)
	if s.inPhase[jobFailed] == 0 {
		t.Fatalf("no job failed at the cut-off; inPhase = %v", s.inPhase)
	}
}
