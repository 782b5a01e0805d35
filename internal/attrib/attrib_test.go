package attrib_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"splitserve/internal/attrib"
	"splitserve/internal/cluster"
	"splitserve/internal/eventlog"
	"splitserve/internal/workloads"
	"splitserve/internal/workloads/shufflereuse"
	"splitserve/internal/workloads/sparkpi"
)

// piJob builds a small sparkpi workload (same sizing idiom as the
// cluster tests: cheap real CPU, seconds of simulated CPU).
func piJob(partitions int, taskSecs float64) workloads.Workload {
	return sparkpi.New(sparkpi.Config{
		Darts:               int64(float64(partitions) * taskSecs * 5e7 / 0.4),
		SampledDartsPerTask: 400_000 / partitions,
		Partitions:          partitions,
		CostPerDart:         0.4,
		Seed:                3,
	})
}

func shuffleJob() workloads.Workload {
	return shufflereuse.New(shufflereuse.Config{
		Partitions:       4,
		RowsPerPartition: 500,
		RowBytes:         4096,
		Keys:             4 * 500,
		Reuse:            3,
	})
}

func clusterEvents(t *testing.T, cfg cluster.Config) []eventlog.Event {
	t.Helper()
	s, err := cluster.New(cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatalf("cluster.Run: %v", err)
	}
	return s.Events().Events()
}

// mixedConfig is a small randomized multi-job day: a pool too small for
// the combined demand, bridged Lambda shortfall, poisson arrivals.
func mixedConfig(t *testing.T, seed uint64) cluster.Config {
	t.Helper()
	mk := func(i int, w workloads.Workload, name string, cores int, at time.Duration) cluster.JobSpec {
		base, err := cluster.Baseline(w, cores, 9)
		if err != nil {
			t.Fatalf("Baseline: %v", err)
		}
		return cluster.JobSpec{Name: name, Workload: w, Cores: cores, Arrival: at, Baseline: base}
	}
	arrivals, err := cluster.ParseArrivals("poisson:20s", 4, seed)
	if err != nil {
		t.Fatalf("ParseArrivals: %v", err)
	}
	jobs := []cluster.JobSpec{
		mk(0, piJob(8, 2), "sparkpi", 8, arrivals[0]),
		mk(1, shuffleJob(), "shufflereuse", 8, arrivals[1]),
		mk(2, piJob(4, 3), "sparkpi", 4, arrivals[2]),
		mk(3, shuffleJob(), "shufflereuse", 8, arrivals[3]),
	}
	return cluster.Config{
		Jobs:      jobs,
		PoolCores: 8,
		Policy:    cluster.FairShare(),
		Strategy:  cluster.StrategyBridge,
		SLOFactor: 3,
		Seed:      seed,
	}
}

// TestBlameSumsToMakespan is the core property: for every job of a
// randomized cluster run, the blame components sum to the makespan
// within one virtual tick (1 µs), the critical path tiles the window
// gaplessly, and the path's span durations cover the whole makespan.
func TestBlameSumsToMakespan(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		events := clusterEvents(t, mixedConfig(t, seed))
		rep := attrib.Analyze(events)
		if len(rep.Jobs) != 4 {
			t.Fatalf("seed %d: attributed %d jobs, want 4", seed, len(rep.Jobs))
		}
		for _, j := range rep.Jobs {
			diff := j.BlameSumUS() - j.MakespanUS
			if diff < -1 || diff > 1 {
				t.Errorf("seed %d app %s: blame sum %d != makespan %d (diff %d)",
					seed, j.App, j.BlameSumUS(), j.MakespanUS, diff)
			}
			// Path tiles [arrival, end] with no gaps or overlaps.
			at := j.ArrivalUS
			var pathSum int64
			for i, seg := range j.Path {
				if seg.StartUS != at {
					t.Errorf("seed %d app %s: segment %d starts at %d, want %d",
						seed, j.App, i, seg.StartUS, at)
				}
				if seg.EndUS <= seg.StartUS {
					t.Errorf("seed %d app %s: segment %d is empty or reversed", seed, j.App, i)
				}
				pathSum += seg.DurUS()
				at = seg.EndUS
			}
			if len(j.Path) > 0 && at != j.EndUS {
				t.Errorf("seed %d app %s: path ends at %d, want %d", seed, j.App, at, j.EndUS)
			}
			if pathSum < j.MakespanUS {
				t.Errorf("seed %d app %s: path covers %d µs < makespan %d µs",
					seed, j.App, pathSum, j.MakespanUS)
			}
			if v := j.BlameUS.Get(attrib.PreemptOverhead); v != 0 {
				t.Errorf("seed %d app %s: preempt_overhead = %d, want 0 (reserved)", seed, j.App, v)
			}
		}
		// Totals mirror the per-job sums.
		var want int64
		for _, j := range rep.Jobs {
			want += j.MakespanUS
		}
		if rep.Totals.MakespanUS != want {
			t.Errorf("seed %d: totals makespan %d, want %d", seed, rep.Totals.MakespanUS, want)
		}
	}
}

// TestSameSeedByteIdentical: the attribution report inherits the event
// log's replay guarantee — same seed, same bytes.
func TestSameSeedByteIdentical(t *testing.T) {
	run := func() []byte {
		rep := attrib.Analyze(clusterEvents(t, mixedConfig(t, 5)))
		buf, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty attribution JSON")
	}
	if !bytes.Equal(a, b) {
		t.Error("same-seed attribution reports differ byte-wise")
	}
}

// warmComparableConfig builds a run where the Lambda bridge carries most
// of the work — a 2-core VM pool against an 8-core job with long tasks —
// so executor start-up genuinely gates the critical path. The warm-pool
// size is the only variable between the two runs the -warmpool diff
// acceptance test compares.
func warmComparableConfig(t *testing.T, warmPool int) cluster.Config {
	t.Helper()
	w := piJob(16, 4)
	base, err := cluster.Baseline(w, 8, 9)
	if err != nil {
		t.Fatalf("Baseline: %v", err)
	}
	jobs := []cluster.JobSpec{{
		Name: "sparkpi", Workload: w, Cores: 8, Arrival: 0, Baseline: base,
	}}
	return cluster.Config{
		Jobs:       jobs,
		PoolCores:  2,
		Policy:     cluster.FairShare(),
		Strategy:   cluster.StrategyBridge,
		SLOFactor:  3,
		Seed:       5,
		ColdStarts: true,
		WarmPool:   warmPool,
		TmpCache:   warmPool > 0,
	}
}

// TestWarmpoolDiffConcentrated: two runs differing only by the warm pool
// must diff with the delta concentrated in lambda_cold_start /
// warm_hit_saved — the acceptance criterion for run-to-run diffing.
func TestWarmpoolDiffConcentrated(t *testing.T) {
	cold := attrib.Analyze(clusterEvents(t, warmComparableConfig(t, 0)))
	warm := attrib.Analyze(clusterEvents(t, warmComparableConfig(t, 4)))

	coldCS := cold.Totals.BlameUS.Get(attrib.LambdaColdStart)
	warmCS := warm.Totals.BlameUS.Get(attrib.LambdaColdStart)
	if coldCS == 0 {
		t.Fatal("cold run shows no lambda_cold_start blame on the critical path")
	}
	if warmCS >= coldCS {
		t.Errorf("warm pool did not reduce cold-start blame: cold %d µs, warm %d µs", coldCS, warmCS)
	}
	if warm.Totals.SavedUS.Get(attrib.WarmHitSaved) == 0 {
		t.Error("warm run credits no warm_hit_saved")
	}

	d := attrib.DiffReports(cold, warm)
	dom, _ := d.Dominant()
	if dom != attrib.LambdaColdStart && dom != attrib.WarmHitSaved {
		t.Errorf("diff dominant cause = %s, want lambda_cold_start or warm_hit_saved\n%s",
			dom, d.String())
	}
}

// TestSelfDiffAllZero: a report diffed against itself is all zeros —
// the `make attrib` smoke contract.
func TestSelfDiffAllZero(t *testing.T) {
	rep := attrib.Analyze(clusterEvents(t, warmComparableConfig(t, 4)))
	d := attrib.DiffReports(rep, rep)
	if !d.AllZero() {
		t.Errorf("self-diff is not all zeros:\n%s", d.String())
	}
}

// TestParseReportRoundTrip: JSON -> ParseReport -> JSON is stable, and
// other schemas are rejected.
func TestParseReportRoundTrip(t *testing.T) {
	rep := attrib.Analyze(clusterEvents(t, mixedConfig(t, 2)))
	buf, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := attrib.ParseReport(buf)
	if err != nil {
		t.Fatalf("ParseReport: %v", err)
	}
	buf2, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Error("report JSON not stable through a parse round trip")
	}
	if _, err := attrib.ParseReport([]byte(`{"schema":"bogus/v0"}`)); err == nil {
		t.Error("ParseReport accepted an unknown schema")
	}
}

// TestParseReportUnknownCause: a cause key outside the vocabulary, in a
// job's or a table's column, fails the parse with an error naming it.
func TestParseReportUnknownCause(t *testing.T) {
	for _, doc := range []string{
		`{"schema":"splitserve-attrib/v1","jobs":[{"app":"a","blame_us":{"compute":1,"gpu_wait":2},"path":[]}],"totals":{"jobs":1,"makespan_us":3,"blame_us":{}}}`,
		`{"schema":"splitserve-attrib/v1","jobs":[],"totals":{"jobs":0,"makespan_us":0,"blame_us":{},"saved_us":{"gpu_wait":1}}}`,
		`{"schema":"splitserve-attrib/v1","jobs":[],"totals":{"jobs":0,"makespan_us":0,"blame_us":{}},"by_tenant":{"t":{"jobs":0,"makespan_us":0,"blame_us":{},"cost_usd":{"gpu_wait":0.5}}}}`,
	} {
		_, err := attrib.ParseReport([]byte(doc))
		if err == nil || !strings.Contains(err.Error(), `"gpu_wait"`) {
			t.Errorf("ParseReport(%s): err = %v, want one naming \"gpu_wait\"", doc, err)
		}
	}
}

// TestSyntheticGapAttribution pins the gap rules on a hand-built log:
// queue wait before admission, an executor-registration wait blamed on
// vm_boot, task time as compute, and teardown as driver compute.
func TestSyntheticGapAttribution(t *testing.T) {
	sec := func(s int64) int64 { return s * 1_000_000 }
	mk := func(typ eventlog.Type, ts int64, f func(*eventlog.Event)) eventlog.Event {
		ev := eventlog.Ev(typ)
		ev.App = "j000-synthetic"
		ev.TS = ts
		if f != nil {
			f(&ev)
		}
		return ev
	}
	events := []eventlog.Event{
		mk(eventlog.ClusterArrive, sec(0), func(e *eventlog.Event) { e.Note = "synthetic"; e.Cores = 4 }),
		mk(eventlog.ClusterAdmit, sec(2), func(e *eventlog.Event) { e.Cores = 4 }),
		mk(eventlog.ExecutorAdd, sec(5), func(e *eventlog.Event) { e.Exec = "j000-v00"; e.Kind = "vm"; e.Cores = 1 }),
		mk(eventlog.TaskStart, sec(5), func(e *eventlog.Event) { e.Exec = "j000-v00"; e.Stage = 0; e.Task = 0 }),
		mk(eventlog.TaskEnd, sec(9), func(e *eventlog.Event) { e.Exec = "j000-v00"; e.Stage = 0; e.Task = 0 }),
		mk(eventlog.ExecutorRemove, sec(9), func(e *eventlog.Event) { e.Exec = "j000-v00" }),
		mk(eventlog.ClusterFinish, sec(10), nil),
	}
	rep := attrib.Analyze(events)
	if len(rep.Jobs) != 1 {
		t.Fatalf("attributed %d jobs, want 1", len(rep.Jobs))
	}
	j := rep.Jobs[0]
	if j.MakespanUS != sec(10) {
		t.Fatalf("makespan = %d, want %d", j.MakespanUS, sec(10))
	}
	want := map[attrib.Cause]int64{
		attrib.QueueWait: sec(2), // arrival -> admit
		attrib.VMBoot:    sec(3), // admit -> executor registration
		attrib.Compute:   sec(5), // 4 s task + 1 s teardown
	}
	for c, v := range want {
		if j.BlameUS.Get(c) != v {
			t.Errorf("blame[%s] = %d, want %d", c, j.BlameUS.Get(c), v)
		}
	}
	if got := j.BlameSumUS(); got != j.MakespanUS {
		t.Errorf("blame sum %d != makespan %d", got, j.MakespanUS)
	}
	if j.Tenant != "j000" {
		t.Errorf("tenant = %q, want j000", j.Tenant)
	}
}

// TestShardAssignTenant: on sharded multi-tenant logs, the true tenant id
// from shard_assign (and shard_steal, for migrated jobs) wins over the
// app-prefix fallback, and the ByTenant table keys by it.
func TestShardAssignTenant(t *testing.T) {
	sec := func(s int64) int64 { return s * 1_000_000 }
	mk := func(typ eventlog.Type, ts int64, app string, f func(*eventlog.Event)) eventlog.Event {
		ev := eventlog.Ev(typ)
		ev.App = app
		ev.TS = ts
		if f != nil {
			f(&ev)
		}
		return ev
	}
	events := []eventlog.Event{
		mk(eventlog.ShardAssign, sec(0), "s0-j000-synthetic", func(e *eventlog.Event) { e.Exec = "t07"; e.Cores = 2; e.Note = "shard=0" }),
		mk(eventlog.ClusterArrive, sec(0), "s0-j000-synthetic", func(e *eventlog.Event) { e.Note = "synthetic"; e.Cores = 2 }),
		mk(eventlog.ShardSteal, sec(1), "s1-j000-synthetic", func(e *eventlog.Event) { e.Exec = "t07"; e.Cores = 2; e.Note = "s0->s1" }),
		mk(eventlog.ClusterArrive, sec(1), "s1-j000-synthetic", func(e *eventlog.Event) { e.Note = "synthetic"; e.Cores = 2 }),
		mk(eventlog.ClusterAdmit, sec(2), "s1-j000-synthetic", nil),
		mk(eventlog.ClusterFinish, sec(4), "s1-j000-synthetic", nil),
		mk(eventlog.ClusterAdmit, sec(2), "s0-j000-synthetic", nil),
		mk(eventlog.ClusterFinish, sec(5), "s0-j000-synthetic", nil),
	}
	rep := attrib.Analyze(events)
	if len(rep.Jobs) != 2 {
		t.Fatalf("attributed %d jobs, want 2", len(rep.Jobs))
	}
	for _, j := range rep.Jobs {
		if j.Tenant != "t07" {
			t.Errorf("app %s: tenant = %q, want t07 (from shard events)", j.App, j.Tenant)
		}
	}
	if _, ok := rep.ByTenant["t07"]; !ok || len(rep.ByTenant) != 1 {
		t.Errorf("ByTenant keys = %v, want exactly [t07]", rep.ByTenant)
	}
}

// TestAdmissionDelayCause: a cluster_job_delay event reclassifies the
// pre-admission window from queue_wait to admission_delay.
func TestAdmissionDelayCause(t *testing.T) {
	sec := func(s int64) int64 { return s * 1_000_000 }
	mk := func(typ eventlog.Type, ts int64, f func(*eventlog.Event)) eventlog.Event {
		ev := eventlog.Ev(typ)
		ev.App = "j001-delayed"
		ev.TS = ts
		if f != nil {
			f(&ev)
		}
		return ev
	}
	events := []eventlog.Event{
		mk(eventlog.ClusterArrive, sec(0), nil),
		mk(eventlog.ClusterDelay, sec(1), nil),
		mk(eventlog.ClusterAdmit, sec(4), nil),
		mk(eventlog.ClusterFinish, sec(6), nil),
	}
	j := attrib.Analyze(events).Jobs[0]
	if j.BlameUS.Get(attrib.AdmissionDelay) != sec(4) {
		t.Errorf("admission_delay = %d, want %d", j.BlameUS.Get(attrib.AdmissionDelay), sec(4))
	}
	if j.BlameUS.Get(attrib.QueueWait) != 0 {
		t.Errorf("queue_wait = %d, want 0 when the admission policy delayed the job",
			j.BlameUS.Get(attrib.QueueWait))
	}
}

// TestEmptyLog: no events, no jobs, valid JSON.
func TestEmptyLog(t *testing.T) {
	rep := attrib.Analyze(nil)
	if len(rep.Jobs) != 0 {
		t.Fatalf("attributed %d jobs from an empty log", len(rep.Jobs))
	}
	if _, err := rep.JSON(); err != nil {
		t.Fatal(err)
	}
	d := attrib.DiffReports(rep, rep)
	if !d.AllZero() {
		t.Error("empty self-diff not all zeros")
	}
}
