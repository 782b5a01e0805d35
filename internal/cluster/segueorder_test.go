package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"splitserve/internal/eventlog"
)

// This file pins the order in which the scheduling pass grants free pool
// cores to Lambda-bridged jobs: longest-admitted first (the cross-job
// segue), not job-ID order. Arrivals here come out of ID order, so the
// two orders differ, and a pass that grants in any other order changes
// which job's Lambdas a freed core displaces — and with it the report and
// the event-log digest.

// segueArrivalPerm is the arrival slot of each job: job i arrives at
// segueArrivalPerm[i] × 1.5 s.
var segueArrivalPerm = [8]int{5, 0, 3, 1, 4, 2, 7, 6}

// segueOrderRun plays eight PageRank jobs of 4 cores each, arriving out of
// ID order, on an 8-core FairShare bridged pool, and returns the scheduler
// with its report and event-log bytes.
func segueOrderRun(t *testing.T) (*Scheduler, []byte, []byte) {
	t.Helper()
	const cores = 4
	base, err := Baseline(abortPageRank(), cores, 9)
	if err != nil {
		t.Fatalf("Baseline pagerank: %v", err)
	}
	var specs []JobSpec
	for _, slot := range segueArrivalPerm {
		specs = append(specs, JobSpec{
			Name: "pagerank", Workload: abortPageRank(), Baseline: base,
			Cores:   cores,
			Arrival: time.Duration(slot) * 1500 * time.Millisecond,
		})
	}
	s, err := New(Config{
		Jobs:      specs,
		PoolCores: 8,
		Policy:    FairShare(),
		Strategy:  StrategyBridge,
		Seed:      9,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
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

// TestSegueOrderGolden pins the report bytes and event-log digest of the
// out-of-order day, and checks the run really grants cores to bridged
// jobs out of job-ID order. Regenerate with:
//
//	go test ./internal/cluster -run TestSegueOrderGolden -update
func TestSegueOrderGolden(t *testing.T) {
	s, report, log := segueOrderRun(t)

	var granted []string
	for _, ev := range s.Events().Events() {
		if ev.Type == eventlog.SegueCoreGrant {
			granted = append(granted, ev.App)
		}
	}
	if len(granted) < 2 {
		t.Fatalf("only %d segue core grants, want >= 2: %v", len(granted), granted)
	}
	sorted := true
	for i := 1; i < len(granted); i++ {
		if granted[i] < granted[i-1] {
			sorted = false
		}
	}
	if sorted {
		t.Errorf("segue grant order %v is job-ID order; the pin cannot tell it from admission order", granted)
	}

	path := filepath.Join("testdata", "segueorder.golden.json")
	if *update {
		sum := sha256.Sum256(log)
		g := runqueueGolden{
			Note:           "regenerate with: go test ./internal/cluster -run TestSegueOrderGolden -update",
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
		t.Error("segue-order report differs from golden")
	}
	if got := bytes.Count(log, []byte{'\n'}); got != want.Events {
		t.Errorf("event count %d, golden has %d", got, want.Events)
	}
	sum := sha256.Sum256(log)
	if got := hex.EncodeToString(sum[:]); got != want.EventlogSHA256 {
		t.Errorf("event-log digest %s differs from golden %s", got, want.EventlogSHA256)
	}
}
