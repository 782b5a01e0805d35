package cluster

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"splitserve/internal/eventlog"
	"splitserve/internal/simclock"
	"splitserve/internal/workloads"
	"splitserve/internal/workloads/sparkpi"
)

// piJob builds a sparkpi workload sized so each of its partitions runs
// about taskSecs seconds of simulated CPU on one core, with negligible
// real CPU (small sample count).
func piJob(partitions int, taskSecs float64) workloads.Workload {
	cfg := sparkpi.Config{
		// source cost per task = Darts/Partitions × CostPerDart work
		// units; the default perf model runs 5e7 units/sec/core.
		Darts: int64(float64(partitions) * taskSecs * 5e7 / 0.4),
		// ~400k real samples per job keeps the pi estimate inside the
		// workload's plausibility check without burning test CPU.
		SampledDartsPerTask: 400_000 / partitions,
		Partitions:          partitions,
		CostPerDart:         0.4,
		Seed:                3,
	}
	return sparkpi.New(cfg)
}

func testJobs(t *testing.T, arrivals []time.Duration, cores, partitions int, taskSecs float64) []JobSpec {
	t.Helper()
	base, err := Baseline(piJob(partitions, taskSecs), cores, 9)
	if err != nil {
		t.Fatalf("Baseline: %v", err)
	}
	jobs := make([]JobSpec, len(arrivals))
	for i, at := range arrivals {
		jobs[i] = JobSpec{
			Workload: piJob(partitions, taskSecs),
			Cores:    cores,
			Arrival:  at,
			Baseline: base,
		}
	}
	return jobs
}

func runCluster(t *testing.T, cfg Config) *Report {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func TestClusterRunsJobStream(t *testing.T) {
	arrivals, err := ParseArrivals("poisson:8s", 6, 1)
	if err != nil {
		t.Fatalf("ParseArrivals: %v", err)
	}
	rep := runCluster(t, Config{
		Jobs:      testJobs(t, arrivals, 4, 8, 4),
		PoolCores: 4,
		Policy:    FairShare(),
		Strategy:  StrategyBridge,
		SLOFactor: 1.5,
		Seed:      1,
	})
	if rep.Completed != 6 || rep.Failed != 0 {
		t.Fatalf("completed %d failed %d, want 6/0:\n%s", rep.Completed, rep.Failed, rep)
	}
	for _, j := range rep.JobReports {
		if j.VMTasks+j.LambdaTasks == 0 {
			t.Errorf("job %d ran no tasks", j.ID)
		}
		if j.CostUSD <= 0 {
			t.Errorf("job %d has no cost", j.ID)
		}
		// Stretch can dip slightly below 1: while surplus Lambdas drain
		// (they finish their current task first), the job briefly runs
		// over-provisioned. It must still be positive and sane.
		if j.Stretch <= 0 || j.Stretch > 50 {
			t.Errorf("job %d has implausible stretch %.2f", j.ID, j.Stretch)
		}
	}
	if rep.TotalUSD <= rep.VMBaseUSD {
		t.Errorf("bridge run should accrue lambda cost: %+v", rep)
	}
}

func TestClusterSameSeedByteIdenticalReports(t *testing.T) {
	build := func() []byte {
		arrivals, err := ParseArrivals("poisson:15s", 5, 7)
		if err != nil {
			t.Fatalf("ParseArrivals: %v", err)
		}
		rep := runCluster(t, Config{
			Jobs:      testJobs(t, arrivals, 4, 6, 3),
			PoolCores: 8,
			Policy:    FairShare(),
			Strategy:  StrategyBridge,
			SLOFactor: 1.5,
			Seed:      1,
		})
		buf, err := rep.JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		return buf
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed reports differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestFinalizeTwiceReturnsFirstReport: Finalize releases the job list,
// so a second call returns the first call's report, rows and all, and
// changes nothing else: no event, no counter.
func TestFinalizeTwiceReturnsFirstReport(t *testing.T) {
	s, err := New(Config{
		Jobs:      testJobs(t, []time.Duration{0, time.Second, 2 * time.Second}, 4, 4, 2),
		PoolCores: 4, Policy: FairShare(), Strategy: StrategyBridge, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 3 || len(rep.JobReports) != 3 {
		t.Fatalf("premise: %d completed, %d rows, want 3 and 3", rep.Completed, len(rep.JobReports))
	}
	first, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	events := s.Events().Len()
	var prom bytes.Buffer
	if err := s.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}

	if again := s.Finalize(); again != rep {
		t.Fatal("second Finalize built a new report")
	}
	second, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("report changed on the second Finalize:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if n := s.Events().Len(); n != events {
		t.Errorf("second Finalize emitted %d events", n-events)
	}
	var again bytes.Buffer
	if err := s.WriteProm(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prom.Bytes(), again.Bytes()) {
		t.Error("second Finalize changed the telemetry")
	}
}

// TestFairShareBeatsFIFOQueueWait is the ISSUE's acceptance scenario: a
// long many-task job arrives first and hogs the pool; a burst of short
// jobs lands behind it. Under FIFO the head job keeps its full grant and
// the burst queues; fair share reclaims cores (task-by-task drain) and
// admits the burst almost immediately, so its p99 queue wait drops.
func TestFairShareBeatsFIFOQueueWait(t *testing.T) {
	specs := func() []JobSpec {
		big, err := Baseline(piJob(40, 6), 4, 9)
		if err != nil {
			t.Fatalf("Baseline big: %v", err)
		}
		small, err := Baseline(piJob(2, 5), 2, 9)
		if err != nil {
			t.Fatalf("Baseline small: %v", err)
		}
		jobs := []JobSpec{{Name: "big", Workload: piJob(40, 6), Cores: 4, Arrival: 0, Baseline: big}}
		burst, err := ParseArrivals("bursty:6x5m", 6, 1)
		if err != nil {
			t.Fatalf("ParseArrivals: %v", err)
		}
		for _, at := range burst {
			jobs = append(jobs, JobSpec{
				Name: "small", Workload: piJob(2, 5), Cores: 2,
				Arrival: 5*time.Second + at, Baseline: small,
			})
		}
		return jobs
	}
	run := func(p Policy) *Report {
		return runCluster(t, Config{
			Jobs:      specs(),
			PoolCores: 4,
			Policy:    p,
			Strategy:  StrategyQueue,
			SLOFactor: 2,
			Seed:      1,
		})
	}
	fifo := run(FIFO())
	fair := run(FairShare())
	if fifo.Completed != 7 || fair.Completed != 7 {
		t.Fatalf("completed fifo=%d fair=%d, want 7", fifo.Completed, fair.Completed)
	}
	if fair.QueueWaitP99US >= fifo.QueueWaitP99US {
		t.Fatalf("fair share p99 queue wait %s not better than fifo %s\nfifo:\n%s\nfair:\n%s",
			time.Duration(fair.QueueWaitP99US)*time.Microsecond,
			time.Duration(fifo.QueueWaitP99US)*time.Microsecond, fifo, fair)
	}
	// Same assertion through the exported histograms (non-strict: bucket
	// interpolation can tie when both land in the same bucket).
	if fair.QueueWaitHist.Count == 0 || fifo.QueueWaitHist.Count == 0 {
		t.Fatal("queue-wait histograms not exported in report")
	}
	if fair.QueueWaitHist.P99 > fifo.QueueWaitHist.P99 {
		t.Fatalf("fair share histogram p99 queue wait %.1fs worse than fifo %.1fs",
			fair.QueueWaitHist.P99, fifo.QueueWaitHist.P99)
	}
	if fair.StretchHist.Count == 0 || fifo.StretchHist.Count == 0 {
		t.Fatal("stretch histograms not exported in report")
	}
}

// TestClusterEventLogDeterministic runs the same multi-job day twice and
// requires byte-identical event logs — the cluster-path half of the
// replay-artifact guarantee (the single-run half lives in experiments).
func TestClusterEventLogDeterministic(t *testing.T) {
	run := func() []byte {
		arrivals, err := ParseArrivals("poisson:8s", 4, 1)
		if err != nil {
			t.Fatalf("ParseArrivals: %v", err)
		}
		s, err := New(Config{
			Jobs:      testJobs(t, arrivals, 4, 8, 4),
			PoolCores: 4,
			Policy:    FairShare(),
			Strategy:  StrategyBridge,
			SLOFactor: 2,
			Seed:      1,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		buf, err := s.Events().JSONL()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("cluster event log is empty")
	}
	if !bytes.Equal(a, b) {
		t.Error("two identical cluster runs produced different event logs")
	}
	// The stream must carry the cluster-layer vocabulary on top of the
	// per-job engine events.
	events, err := eventlog.ReadJSONL(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	seen := map[eventlog.Type]bool{}
	for _, e := range events {
		seen[e.Type] = true
	}
	for _, want := range []eventlog.Type{
		eventlog.ClusterArrive, eventlog.ClusterAdmit, eventlog.ClusterFinish,
		eventlog.CoreLease, eventlog.TaskStart, eventlog.TaskEnd,
	} {
		if !seen[want] {
			t.Errorf("cluster event log missing %s events", want)
		}
	}
}

// TestPolicyTargets: entitle sets the targets of the prefix of jobs it
// walks before capacity runs out, returns that prefix's length and leaves
// every later job untouched (the scheduler keeps those at 0; see
// TestPushedOutJobReadsTargetZero).
func TestPolicyTargets(t *testing.T) {
	const untouched = 99
	cases := []struct {
		policy   Policy
		capacity int
		demands  []int
		want     []int
	}{
		{FIFO(), 8, []int{6, 4, 2}, []int{6, 2, untouched}},
		{FIFO(), 8, []int{4, 4, 2}, []int{4, 4, untouched}},
		{FIFO(), 8, []int{10}, []int{8}},
		{FIFO(), 12, []int{6, 4, 2}, []int{6, 4, 2}},
		{FIFO(), 0, []int{5}, []int{untouched}},
		{FairShare(), 8, []int{6, 4, 2}, []int{3, 3, 2}},
		{FairShare(), 12, []int{6, 4, 2}, []int{6, 4, 2}},
		{FairShare(), 7, []int{6, 4, 2}, []int{3, 2, 2}},
		{FairShare(), 2, []int{6, 4, 2}, []int{1, 1, untouched}},
		{FairShare(), 0, []int{5}, []int{untouched}},
	}
	for _, c := range cases {
		active := make([]*job, len(c.demands))
		for i, d := range c.demands {
			// A stale target inside the prefix must be overwritten.
			active[i] = &job{spec: JobSpec{Cores: d}, target: untouched}
		}
		n := c.policy.entitle(c.capacity, active)
		got := make([]int, len(active))
		wantN := 0
		for i, j := range active {
			got[i] = j.target
			if c.want[i] != untouched {
				wantN = i + 1
			}
		}
		if !slices.Equal(got, c.want) || n != wantN {
			t.Errorf("%s(%d, %v) = %v, prefix %d; want %v, prefix %d",
				c.policy.Name(), c.capacity, c.demands, got, n, c.want, wantN)
		}
	}
}

// TestPushedOutJobReadsTargetZero: a job pushed out of the entitled prefix
// reads target 0, not the entitlement an earlier pass gave it. Under FIFO
// on a 4-core pool, jobs 1 and 2 (2 cores each) arrive first and are
// admitted on 2 cores apiece; job 0 (4 cores) then arrives and takes the
// whole pool, so jobs 1 and 2 must read 0 and give their cores back, and
// job 3, arriving later still, is admitted bridged on 0.
func TestPushedOutJobReadsTargetZero(t *testing.T) {
	spec := func(cores int, at time.Duration) JobSpec {
		base, err := Baseline(piJob(4, 10), cores, 9)
		if err != nil {
			t.Fatalf("Baseline: %v", err)
		}
		return JobSpec{Workload: piJob(4, 10), Cores: cores, Arrival: at, Baseline: base}
	}
	s, err := New(Config{
		Jobs: []JobSpec{
			spec(4, 2*time.Second), spec(2, 0), spec(2, time.Second), spec(2, 3*time.Second),
		},
		PoolCores: 4, Policy: FIFO(), Strategy: StrategyBridge, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Run releases the job list, so keep it for the checks after.
	jobs := s.jobs
	var targets []int
	s.clock.At(simclock.Epoch.Add(2*time.Second+time.Millisecond), func() {
		for _, j := range s.jobs {
			targets = append(targets, j.target)
		}
	})
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 4 {
		t.Fatalf("premise: %d of 4 jobs completed", rep.Completed)
	}
	if want := []int{4, 0, 0, 0}; !slices.Equal(targets, want) {
		t.Errorf("targets just after job 0 arrives = %v, want %v", targets, want)
	}
	admitCores := map[string]int{}
	reclaimed := map[string]bool{}
	for _, e := range s.Events().Events() {
		switch {
		case e.Type == eventlog.ClusterAdmit:
			admitCores[e.App] = e.Cores
		case e.Type == eventlog.ExecutorDrain && e.Kind == "vm":
			reclaimed[e.App] = true
		}
	}
	for i, want := range []int{4, 2, 2, 0} {
		app := jobs[i].appID
		if admitCores[app] != want {
			t.Errorf("%s admitted on %d cores, want %d", app, admitCores[app], want)
		}
	}
	for _, i := range []int{1, 2} {
		if app := jobs[i].appID; !reclaimed[app] {
			t.Errorf("%s was pushed out of the entitled prefix but drained no VM executor", app)
		}
	}
}

func TestParseArrivals(t *testing.T) {
	if _, err := ParseArrivals("nope", 3, 1); err == nil {
		t.Error("unknown spec should error")
	}
	if _, err := ParseArrivals("poisson:-3s", 3, 1); err == nil {
		t.Error("negative mean should error")
	}
	// The package reads no files; the error points at the reader that does.
	if _, err := ParseArrivals("tracefile:arrivals.csv", 3, 1); err == nil || !strings.Contains(err.Error(), "tracereplay.Load") {
		t.Errorf("tracefile spec: error %v, want a pointer to tracereplay.Load", err)
	}
	uni, err := ParseArrivals("uniform:10s", 3, 1)
	if err != nil || len(uni) != 3 || uni[2] != 20*time.Second {
		t.Errorf("uniform = %v, %v", uni, err)
	}
	tr, err := ParseArrivals("trace:5s,1s,3s", 99, 1)
	if err != nil || len(tr) != 3 || tr[0] != time.Second {
		t.Errorf("trace = %v, %v", tr, err)
	}
	p1, _ := ParseArrivals("poisson:30s", 4, 2)
	p2, _ := ParseArrivals("poisson:30s", 4, 2)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Errorf("poisson not deterministic: %v vs %v", p1, p2)
		}
	}
	b, err := ParseArrivals("bursty:2x1m", 5, 1)
	if err != nil || b[1] != time.Second || b[2] != time.Minute {
		t.Errorf("bursty = %v, %v", b, err)
	}
}

// TestExecPrefixMatchesSprintf: job ID prefixes keep the bytes of fmt's
// "%sj%03d", past the padding width too.
func TestExecPrefixMatchesSprintf(t *testing.T) {
	for _, n := range []int{0, 1, 9, 10, 99, 100, 999, 1000, 123456} {
		for _, idPrefix := range []string{"", "s3-"} {
			if got, want := execPrefix(idPrefix, n), fmt.Sprintf("%sj%03d", idPrefix, n); got != want {
				t.Errorf("execPrefix(%q, %d) = %q, want %q", idPrefix, n, got, want)
			}
		}
	}
}
