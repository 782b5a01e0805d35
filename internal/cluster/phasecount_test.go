package cluster

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"splitserve/internal/simclock"
)

// The scheduler keeps per-phase job counts (Scheduler.inPhase) and the
// ID-ordered job lists its scheduling pass walks instead of rescanning its
// working set. These tests drive the Start/Step/Pump loop by hand and,
// after every step, recount the phases of every job the scheduler knows to
// check the counts and lists never drift: through steals and injections,
// deadline-admission sheds, and Finalize's failures.

// checkPhaseCounts fails t unless s.inPhase matches a recount of jobs
// (s.jobs, or a copy taken before Finalize released it), the active and
// queued lists hold exactly the jobs in those phases in ID order, only
// entitled active jobs have a nonzero target, and every running job
// holding a pool core is on the ID-ordered lease-holder list.
func checkPhaseCounts(t *testing.T, s *Scheduler, jobs []*job, where string) {
	t.Helper()
	at := s.clock.Since(simclock.Epoch)
	var want [numPhases]int
	var active, queued []*job
	for _, j := range jobs {
		want[j.phase]++
		if j.active() {
			active = append(active, j)
		}
		if j.phase == jobQueued {
			queued = append(queued, j)
		}
		if j.active() && j.target != 0 && !slices.Contains(s.entitled, j) {
			t.Fatalf("%s at %v: %s has target %d outside the entitled prefix", where, at, j.appID, j.target)
		}
		if j.phase == jobRunning && j.backend.coresHeld() > 0 && !slices.Contains(s.holders, j) {
			t.Fatalf("%s at %v: %s holds %d cores but is not a lease holder", where, at, j.appID, j.backend.coresHeld())
		}
	}
	if s.inPhase != want {
		t.Fatalf("%s at %v: inPhase = %v, recount = %v", where, at, s.inPhase, want)
	}
	if !slices.Equal(s.active, active) || !slices.Equal(s.queued, queued) {
		t.Fatalf("%s at %v: %d active and %d queued listed, recount %d and %d",
			where, at, len(s.active), len(s.queued), len(active), len(queued))
	}
	if !slices.IsSortedFunc(s.holders, func(a, b *job) int { return cmp.Compare(a.id, b.id) }) {
		t.Fatalf("%s at %v: lease holders out of ID order", where, at)
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
		checkPhaseCounts(t, s, s.jobs, "start")
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
			checkPhaseCounts(t, s, s.jobs, "step")
		}
		if between != nil {
			between()
			for _, s := range scheds {
				checkPhaseCounts(t, s, s.jobs, "between steps")
			}
		}
	}
	for _, s := range scheds {
		jobs := s.jobs // Finalize releases the list
		s.Finalize()
		checkPhaseCounts(t, s, jobs, "finalize")
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
		checkPhaseCounts(t, busy, busy.jobs, "after Steal")
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
