package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"splitserve/internal/eventlog"
	"splitserve/internal/workloads"
	"splitserve/internal/workloads/kmeans"
	"splitserve/internal/workloads/pagerank"
)

// This file pins the order in which Finalize aborts workloads still parked
// when MaxSimTime cuts a day short: park order, not job-ID order. Iterative
// K-means jobs re-park after every iteration, so by the cut-off they sit
// behind PageRank jobs admitted after them; an abort pass in any other
// order changes the cluster_fail sequence and with it the event-log
// digest.

func abortKMeans() workloads.Workload {
	return kmeans.New(kmeans.Config{
		Points: 4_000, Dims: 4, K: 3,
		MaxIterations: 6, ConvergenceDist: -1,
		Partitions: 4, Seed: 2, RowBytes: 600, WorkScale: 40,
		ExpectedSLO: time.Minute,
	})
}

func abortPageRank() workloads.Workload {
	return pagerank.New(pagerank.Config{
		Pages: 4_000, AvgOutDegree: 10, Iterations: 2,
		Partitions: 4, Damping: 0.85, Seed: 1, WorkScale: 40,
		ExpectedSLO: time.Minute,
	})
}

// abortOrderRun plays a kmeans/pagerank mix on an undersized bridged pool,
// cut off by MaxSimTime while jobs are still parked, and returns the
// scheduler with its report and event-log bytes.
func abortOrderRun(t *testing.T) (*Scheduler, []byte, []byte) {
	t.Helper()
	const cores = 4
	kmBase, err := Baseline(abortKMeans(), cores, 9)
	if err != nil {
		t.Fatalf("Baseline kmeans: %v", err)
	}
	prBase, err := Baseline(abortPageRank(), cores, 9)
	if err != nil {
		t.Fatalf("Baseline pagerank: %v", err)
	}
	var specs []JobSpec
	for i := 0; i < 8; i++ {
		spec := JobSpec{Name: "kmeans", Workload: abortKMeans(), Baseline: kmBase}
		if i%2 == 1 {
			spec = JobSpec{Name: "pagerank", Workload: abortPageRank(), Baseline: prBase}
		}
		spec.Cores = cores
		spec.Arrival = time.Duration(i) * 2 * time.Second
		specs = append(specs, spec)
	}
	s, err := New(Config{
		Jobs:       specs,
		PoolCores:  8,
		Strategy:   StrategyBridge,
		SLOFactor:  3,
		Seed:       5,
		MaxSimTime: abortCutoff,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Aborting a parked workload returns only after its body has, so no
	// workload outlives the run.
	before := runtime.NumGoroutine()
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines after Run, %d before", after, before)
	}
	report, err := rep.JSON()
	if err != nil {
		t.Fatalf("Report.JSON: %v", err)
	}
	log, err := s.Events().JSONL()
	if err != nil {
		t.Fatalf("Events.JSONL: %v", err)
	}
	return s, report, log
}

// abortCutoff ends the day while several jobs are parked mid-job.
const abortCutoff = 15 * time.Second

// TestAbortOrderGolden pins the report bytes and event-log digest of the
// cut-off day, and checks the pin can tell park order from job-ID order.
// Regenerate with:
//
//	go test ./internal/cluster -run TestAbortOrderGolden -update
func TestAbortOrderGolden(t *testing.T) {
	s, report, log := abortOrderRun(t)

	// The aborted workloads settle through finish, one cluster_fail each,
	// in abort order.
	var failed []string
	for _, ev := range s.Events().Events() {
		if ev.Type == eventlog.ClusterFail && strings.Contains(ev.Note, "stalled") {
			failed = append(failed, ev.App)
		}
	}
	if len(failed) < 3 {
		t.Fatalf("only %d parked jobs aborted at the cut-off, want >= 3: %v", len(failed), failed)
	}
	sorted := true
	for i := 1; i < len(failed); i++ {
		if failed[i] < failed[i-1] {
			sorted = false
		}
	}
	if sorted {
		t.Errorf("abort order %v is job-ID order; the pin cannot tell it from park order", failed)
	}

	path := filepath.Join("testdata", "abortorder.golden.json")
	if *update {
		sum := sha256.Sum256(log)
		g := runqueueGolden{
			Note:           "regenerate with: go test ./internal/cluster -run TestAbortOrderGolden -update",
			Report:         report,
			Events:         bytes.Count(log, []byte{'\n'}),
			EventlogSHA256: hex.EncodeToString(sum[:]),
		}
		buf, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatalf("marshal golden: %v", err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		t.Logf("recorded %s (%d events)", path, g.Events)
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	var want runqueueGolden
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if !bytes.Equal(compactJSON(t, report), compactJSON(t, []byte(want.Report))) {
		t.Error("cut-off report differs from golden")
	}
	if got := bytes.Count(log, []byte{'\n'}); got != want.Events {
		t.Errorf("event count %d, golden has %d", got, want.Events)
	}
	sum := sha256.Sum256(log)
	if got := hex.EncodeToString(sum[:]); got != want.EventlogSHA256 {
		t.Errorf("event-log digest %s differs from golden %s", got, want.EventlogSHA256)
	}
}
