package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"splitserve/internal/eventlog"
	"splitserve/internal/simrand"
	"splitserve/internal/spark/engine"
)

var update = flag.Bool("update", false, "rewrite golden files")

// elasticSpecs is a stream engineered for scale-down: a three-job burst
// that overflows the one-VM base pool (forcing autoscale procurement),
// then a long quiet gap, then one straggler job the base pool can serve
// alone — so the procured instances sit fully idle well past any
// reasonable timeout.
func elasticSpecs(t *testing.T) []JobSpec {
	t.Helper()
	arrivals := []time.Duration{0, time.Second, 2 * time.Second, 6 * time.Minute}
	return testJobs(t, arrivals, 4, 8, 4)
}

func runElastic(t *testing.T, idle time.Duration, admission Admission) (*Report, *Scheduler) {
	t.Helper()
	s, err := New(Config{
		Jobs:           elasticSpecs(t),
		PoolCores:      4,
		Policy:         FairShare(),
		Strategy:       StrategyAutoscale,
		SLOFactor:      3,
		VMBootOverride: 30 * time.Second,
		Seed:           1,
		Admission:      admission,
		ScaleDownIdle:  idle,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep, s
}

// TestScaleDownReleasesIdleProcuredVMs is the acceptance scenario: with
// -scaledown enabled the run must report strictly lower VM-hours than the
// keep-forever baseline at equal-or-better SLO attainment, and the
// difference must show up in every cost channel (hours saved, dollars
// saved, release events, terminated instances).
func TestScaleDownReleasesIdleProcuredVMs(t *testing.T) {
	keep, _ := runElastic(t, 0, AdmissionGreedy)
	scale, s := runElastic(t, 45*time.Second, AdmissionGreedy)

	if keep.Completed != 4 || scale.Completed != 4 {
		t.Fatalf("completed keep=%d scale=%d, want 4\nkeep:\n%s\nscale:\n%s",
			keep.Completed, scale.Completed, keep, scale)
	}
	if keep.VMsReleasedIdle != 0 || keep.VMHoursSaved != 0 {
		t.Errorf("keep-forever run reports releases: %d VMs, %.3f h",
			keep.VMsReleasedIdle, keep.VMHoursSaved)
	}
	if scale.VMsReleasedIdle == 0 {
		t.Fatalf("scale-down released no VMs:\n%s", scale)
	}
	if scale.VMHours >= keep.VMHours {
		t.Errorf("scale-down VM-hours %.3f not strictly below keep-forever %.3f",
			scale.VMHours, keep.VMHours)
	}
	if scale.VMAutoscaleUSD >= keep.VMAutoscaleUSD {
		t.Errorf("scale-down autoscale cost $%.4f not below keep-forever $%.4f",
			scale.VMAutoscaleUSD, keep.VMAutoscaleUSD)
	}
	if scale.VMHoursSaved <= 0 || scale.VMScaledownSavedUSD <= 0 {
		t.Errorf("savings not reported: %.3f h, $%.4f",
			scale.VMHoursSaved, scale.VMScaledownSavedUSD)
	}
	if scale.SLOAttainment < keep.SLOAttainment {
		t.Errorf("scale-down worsened SLO attainment: %.3f < %.3f",
			scale.SLOAttainment, keep.SLOAttainment)
	}

	releases := 0
	for _, ev := range s.Events().Events() {
		if ev.Type == eventlog.VMReleaseIdle {
			releases++
			if ev.Exec == "" || ev.Cores == 0 {
				t.Errorf("vm_release_idle event missing instance identity: %+v", ev)
			}
		}
	}
	if releases != scale.VMsReleasedIdle {
		t.Errorf("event log has %d vm_release_idle events, report says %d",
			releases, scale.VMsReleasedIdle)
	}
	if err := s.pool.CheckInvariants(); err != nil {
		t.Errorf("pool invariants violated after run: %v", err)
	}
}

// TestDeadlineAdmissionShedsInfeasibleJobs overloads a 4-core pool with
// three concurrent 4-core jobs under a tight SLO: greedy admission runs
// them all slowly into violations, deadline admission delays then sheds
// the jobs the fluid model deems unattainable, keeping attainment
// equal-or-better with fewer violations.
func TestDeadlineAdmissionShedsInfeasibleJobs(t *testing.T) {
	run := func(adm Admission) (*Report, *Scheduler) {
		arrivals := []time.Duration{0, time.Second, 2 * time.Second}
		s, err := New(Config{
			Jobs:      testJobs(t, arrivals, 4, 8, 4),
			PoolCores: 4,
			Policy:    FairShare(),
			Strategy:  StrategyQueue,
			SLOFactor: 1.2,
			Seed:      1,
			Admission: adm,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rep, s
	}
	greedy, _ := run(AdmissionGreedy)
	deadline, s := run(AdmissionDeadline)

	if greedy.Shed != 0 {
		t.Errorf("greedy admission shed %d jobs", greedy.Shed)
	}
	if deadline.Shed == 0 {
		t.Fatalf("deadline admission shed nothing under overload:\n%s", deadline)
	}
	if deadline.Delayed == 0 {
		t.Errorf("deadline admission never delayed a job before shedding:\n%s", deadline)
	}
	if deadline.SLOViolations > greedy.SLOViolations {
		t.Errorf("deadline admission has more violations (%d) than greedy (%d)",
			deadline.SLOViolations, greedy.SLOViolations)
	}
	if deadline.SLOAttainment < greedy.SLOAttainment {
		t.Errorf("deadline attainment %.3f below greedy %.3f",
			deadline.SLOAttainment, greedy.SLOAttainment)
	}
	shedJobs := 0
	for _, j := range deadline.JobReports {
		if j.Shed != "" {
			shedJobs++
			if j.StartUS != 0 || j.RunUS != 0 || j.VMTasks+j.LambdaTasks != 0 {
				t.Errorf("shed job %d shows execution: %+v", j.ID, j)
			}
		}
	}
	if shedJobs != deadline.Shed {
		t.Errorf("per-job shed reasons (%d) disagree with summary (%d)", shedJobs, deadline.Shed)
	}
	seen := map[eventlog.Type]int{}
	for _, ev := range s.Events().Events() {
		seen[ev.Type]++
	}
	if seen[eventlog.ClusterShed] != deadline.Shed {
		t.Errorf("event log has %d %s events, report sheds %d",
			seen[eventlog.ClusterShed], eventlog.ClusterShed, deadline.Shed)
	}
	if seen[eventlog.ClusterDelay] == 0 {
		t.Errorf("no %s events emitted", eventlog.ClusterDelay)
	}
}

// TestElasticityPropertyInvariants is the property test: across randomized
// job mixes, strategies and elasticity settings, (a) the core pool's
// conservation laws hold at every emitted event of the run, and (b) no
// task ever starts on an executor whose host VM was already released by
// scale-down.
func TestElasticityPropertyInvariants(t *testing.T) {
	for _, seed := range []uint64{3, 11, 29} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := simrand.New(seed)
			nJobs := 3 + rng.Intn(3)
			cores := 2 + 2*rng.Intn(2) // 2 or 4
			strategy := []Strategy{StrategyQueue, StrategyAutoscale, StrategyBridge}[rng.Intn(3)]
			admission := []Admission{AdmissionGreedy, AdmissionDeadline}[rng.Intn(2)]
			mean := time.Duration(5+rng.Intn(20)) * time.Second
			arrivals, err := ParseArrivals(fmt.Sprintf("poisson:%s", mean), nJobs, seed)
			if err != nil {
				t.Fatalf("ParseArrivals: %v", err)
			}
			s, err := New(Config{
				Jobs:           testJobs(t, arrivals, cores, 6, 3),
				PoolCores:      cores, // undersized: concurrency forces sharing
				Policy:         FairShare(),
				Strategy:       strategy,
				SLOFactor:      2,
				VMBootOverride: 20 * time.Second,
				Seed:           seed,
				Admission:      admission,
				ScaleDownIdle:  15 * time.Second,
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			// Resolve each task_start's host VM while the job's engine is
			// alive (a settled job keeps no executor map), then require
			// every task_start to predate its host's release.
			byApp := map[string]*job{}
			for _, j := range s.jobs {
				byApp[j.appID] = j
			}
			type start struct {
				exec, vm string
				ts       int64
			}
			var starts []start
			var violation, unresolved error
			nEvents := 0
			s.Events().Subscribe(func(ev eventlog.Event) {
				nEvents++
				if violation == nil {
					if err := s.pool.CheckInvariants(); err != nil {
						violation = fmt.Errorf("event %d (%s): %w", nEvents, ev.Type, err)
					}
				}
				if ev.Type != eventlog.TaskStart || unresolved != nil {
					return
				}
				var e *engine.Executor
				if j := byApp[ev.App]; j != nil && j.cluster != nil {
					e = j.cluster.Executor(ev.Exec)
				}
				switch {
				case e == nil:
					unresolved = fmt.Errorf("task_start on %s of %s: no live job engine knows the executor", ev.Exec, ev.App)
				case e.Kind == engine.ExecVM:
					starts = append(starts, start{ev.Exec, e.VM.ID, ev.TS})
				}
			})
			if _, err := s.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if violation != nil {
				t.Errorf("strategy=%s admission=%s: pool invariant violated: %v",
					strategy, admission, violation)
			}
			if nEvents == 0 {
				t.Fatal("no events observed")
			}
			if unresolved != nil {
				t.Fatal(unresolved)
			}
			if len(starts) == 0 {
				t.Fatal("no task started on a VM executor")
			}

			releasedAt := map[string]int64{}
			for _, ev := range s.Events().Events() {
				if ev.Type == eventlog.VMReleaseIdle {
					releasedAt[ev.Exec] = ev.TS
				}
			}
			for _, st := range starts {
				if rel, ok := releasedAt[st.vm]; ok && st.ts >= rel {
					t.Errorf("task started on %s at %dus, but host %s was released at %dus",
						st.exec, st.ts, st.vm, rel)
				}
			}
		})
	}
}

// TestClusterSameSeedByteIdenticalWithElasticity extends the determinism
// guarantee to the new machinery: with scale-down and deadline admission
// both on, the same seed must still produce byte-identical reports and
// event logs.
func TestClusterSameSeedByteIdenticalWithElasticity(t *testing.T) {
	run := func() ([]byte, []byte) {
		rep, s := runElastic(t, 45*time.Second, AdmissionDeadline)
		repBuf, err := rep.JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		logBuf, err := s.Events().JSONL()
		if err != nil {
			t.Fatalf("JSONL: %v", err)
		}
		return repBuf, logBuf
	}
	repA, logA := run()
	repB, logB := run()
	if !bytes.Equal(repA, repB) {
		t.Errorf("same-seed elastic reports differ:\n--- a ---\n%s\n--- b ---\n%s", repA, repB)
	}
	if !bytes.Equal(logA, logB) {
		t.Error("same-seed elastic event logs differ")
	}
}

// TestClusterElasticReportGolden pins the exact report bytes of an
// elasticity-enabled run. Regenerate with:
//
//	go test ./internal/cluster -run Golden -update
func TestClusterElasticReportGolden(t *testing.T) {
	rep, _ := runElastic(t, 45*time.Second, AdmissionDeadline)
	got, err := rep.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	path := filepath.Join("testdata", "elastic.golden.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("elastic report drifted from golden (regenerate with -update):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
