package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"splitserve/internal/eventlog"
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

func TestPolicyTargets(t *testing.T) {
	cases := []struct {
		policy   Policy
		capacity int
		demands  []int
		want     []int
	}{
		{FIFO(), 8, []int{6, 4, 2}, []int{6, 2, 0}},
		{FIFO(), 8, []int{10}, []int{8}},
		{FairShare(), 8, []int{6, 4, 2}, []int{3, 3, 2}},
		{FairShare(), 12, []int{6, 4, 2}, []int{6, 4, 2}},
		{FairShare(), 7, []int{6, 4, 2}, []int{3, 2, 2}},
		{FairShare(), 0, []int{5}, []int{0}},
	}
	for _, c := range cases {
		active := make([]*job, len(c.demands))
		for i, d := range c.demands {
			// A stale target from an earlier pass must be overwritten.
			active[i] = &job{spec: JobSpec{Cores: d}, target: 99}
		}
		c.policy.entitle(c.capacity, active)
		got := make([]int, len(active))
		for i, j := range active {
			got[i] = j.target
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s(%d, %v) = %v, want %v", c.policy.Name(), c.capacity, c.demands, got, c.want)
				break
			}
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
