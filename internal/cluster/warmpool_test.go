package cluster

import (
	"bytes"
	"testing"
	"time"

	"splitserve/internal/eventlog"
	"splitserve/internal/workloads/shufflereuse"
)

// shuffleJob builds a small repeat-read workload: distinct keys so the
// map-side combiner does not collapse the shuffle, several actions so the
// /tmp cache tier sees repeat fetches.
func shuffleJob() *shufflereuse.Workload {
	return shufflereuse.New(shufflereuse.Config{
		Partitions:       4,
		RowsPerPartition: 500,
		RowBytes:         4096,
		Keys:             4 * 500,
		Reuse:            3,
	})
}

func warmJobs(t *testing.T, n int) []JobSpec {
	t.Helper()
	base, err := Baseline(shuffleJob(), 8, 9)
	if err != nil {
		t.Fatalf("Baseline: %v", err)
	}
	arrivals, err := ParseArrivals("poisson:12s", n, 5)
	if err != nil {
		t.Fatalf("ParseArrivals: %v", err)
	}
	jobs := make([]JobSpec, n)
	for i, at := range arrivals {
		jobs[i] = JobSpec{
			Workload: shuffleJob(),
			Cores:    8,
			Arrival:  at,
			Baseline: base,
		}
	}
	return jobs
}

func warmConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Jobs:      warmJobs(t, 3),
		PoolCores: 4,
		Policy:    FairShare(),
		Strategy:  StrategyBridge,
		SLOFactor: 3,
		Seed:      5,
		WarmPool:  4,
		TmpCache:  true,
	}
}

// TestWarmPoolSameSeedByteIdentical: with the warm pool and /tmp cache on,
// the same seed must still produce byte-identical report JSON and event
// logs — the replay-artifact guarantee extends to the new substrate.
func TestWarmPoolSameSeedByteIdentical(t *testing.T) {
	run := func() ([]byte, []byte) {
		s, err := New(warmConfig(t))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		repJSON, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		log, err := s.Events().JSONL()
		if err != nil {
			t.Fatal(err)
		}
		return repJSON, log
	}
	rep1, log1 := run()
	rep2, log2 := run()
	if len(rep1) == 0 || len(log1) == 0 {
		t.Fatal("empty report or event log")
	}
	if !bytes.Equal(rep1, rep2) {
		t.Error("same-seed warm-pool runs produced different report JSON")
	}
	if !bytes.Equal(log1, log2) {
		t.Error("same-seed warm-pool runs produced different event logs")
	}
}

// TestWarmPoolRunEventsAndBilling: a bridged run on the warm pool must
// surface the new vocabulary (warm hits, pool resizes, /tmp cache hits)
// in the event log and itemize provisioned-idle dollars in the report.
func TestWarmPoolRunEventsAndBilling(t *testing.T) {
	s, err := New(warmConfig(t))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	if rep.WarmPool != 4 || !rep.TmpCache {
		t.Errorf("report warm_pool=%d tmp_cache=%v, want 4/true", rep.WarmPool, rep.TmpCache)
	}
	if rep.WarmHits == 0 {
		t.Error("no warm-pool hits in a bridged run with shortfall")
	}
	if rep.TmpCacheHits == 0 {
		t.Error("no /tmp cache hits despite repeat shuffle reads")
	}
	if rep.LambdaIdleUSD <= 0 {
		t.Errorf("LambdaIdleUSD = %v, want > 0", rep.LambdaIdleUSD)
	}
	if got := rep.VMBaseUSD + rep.VMAutoscaleUSD + rep.LambdaUSD + rep.LambdaIdleUSD; got != rep.TotalUSD {
		t.Errorf("TotalUSD = %v, want line-item sum %v", rep.TotalUSD, got)
	}

	counts := map[eventlog.Type]int{}
	for _, e := range s.Events().Events() {
		counts[e.Type]++
	}
	for _, typ := range []eventlog.Type{
		eventlog.LambdaWarmHit, eventlog.WarmpoolResize, eventlog.TmpCacheHit,
	} {
		if counts[typ] == 0 {
			t.Errorf("event log carries no %s events", typ)
		}
	}
	if counts[eventlog.LambdaWarmHit] != rep.WarmHits {
		t.Errorf("lambda_warm_hit events = %d, report WarmHits = %d",
			counts[eventlog.LambdaWarmHit], rep.WarmHits)
	}
	// Every environment an executor took went back to the pool: one kept
	// busy after its executor is gone would bill as neither invocation nor
	// idle time.
	if n := s.warm.InUse(); n != 0 {
		t.Errorf("%d warm-pool environments still in use after the run", n)
	}
}

// TestClusterRunRecordsNoSpans: cluster reports and -report prom export the
// registry only, so a cluster run records no spans or marks at all — not
// even a bridged day whose jobs launch VM, Lambda and warm-pool executors
// and read through the /tmp cache. Its metrics are still recorded.
func TestClusterRunRecordsNoSpans(t *testing.T) {
	s, err := New(warmConfig(t))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	vmExecs := 0
	for _, j := range rep.JobReports {
		vmExecs += j.VMExecutors
	}
	if rep.WarmHits == 0 || rep.TmpCacheHits == 0 || vmExecs == 0 {
		t.Fatalf("premise: want warm hits, /tmp cache hits and VM executors, got %d, %d, %d",
			rep.WarmHits, rep.TmpCacheHits, vmExecs)
	}
	telem := s.hub.Report()
	if len(telem.Spans) != 0 || len(telem.Marks) != 0 {
		t.Errorf("cluster run recorded %d spans and %d marks, want none", len(telem.Spans), len(telem.Marks))
	}
	if len(telem.Counters) == 0 || len(telem.Histograms) == 0 {
		t.Error("cluster run recorded no metrics")
	}
}

// TestWarmPoolConfigValidation: a negative pool target is a config error,
// and the tmp cache without a warm pool is accepted (it simply fronts the
// store for ambient lambda executors).
func TestWarmPoolConfigValidation(t *testing.T) {
	cfg := warmConfig(t)
	cfg.WarmPool = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative WarmPool accepted")
	}

	cfg = warmConfig(t)
	cfg.WarmPool = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("TmpCache without WarmPool rejected: %v", err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestWarmPoolIdleCheaperThanOnDemand pins the economics the crossover
// experiment leans on: a provisioned environment idling for the whole run
// bills at a quarter of the on-demand rate.
func TestWarmPoolIdleCheaperThanOnDemand(t *testing.T) {
	cfg := warmConfig(t)
	cfg.TmpCache = false
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	makespan := time.Duration(rep.MakespanUS) * time.Microsecond
	// 4 environments idling for the entire makespan at the on-demand rate
	// would cost 4x the idle rate; the report must stay under that.
	onDemandCeiling := 4 * makespan.Seconds() * 1.5 * 0.0000166667
	if rep.LambdaIdleUSD <= 0 || rep.LambdaIdleUSD >= onDemandCeiling {
		t.Errorf("LambdaIdleUSD = %v, want in (0, %v)", rep.LambdaIdleUSD, onDemandCeiling)
	}
}
