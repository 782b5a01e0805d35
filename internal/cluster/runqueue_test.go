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

	"splitserve/internal/simclock"
	"splitserve/internal/workloads"
	"splitserve/internal/workloads/sparkpi"
)

// This file pins the two halves of the event-kernel rework — the timer
// wheel behind simclock.New and the batched run-queue wakeups in the
// scheduler — to their correctness bar: same-seed runs stay byte-identical
// at 1k-job scale, and the wheel-backed scheduler produces exactly the
// bytes the heap-backed reference implementation does, both live
// (swapping newClock in-process) and against a recorded heap-backed
// golden that survives across versions.

// runqueuePi is a sparkpi sized for scale tests: real sampling is trimmed
// to 20k darts/task (the smallest count whose fixed-seed estimate passes
// the workload's plausibility check) so a 1k-job stream costs fractions
// of a second, while the modelled cost keeps tasks sub-millisecond like
// the benchmark's steady shape.
func runqueuePi() workloads.Workload {
	return sparkpi.New(sparkpi.Config{
		Darts:               100_000,
		SampledDartsPerTask: 20_000,
		Partitions:          2,
		CostPerDart:         0.4,
		Seed:                3,
	})
}

// runqueueSpecs is a steady-benchmark-shaped stream: n 2-core jobs arriving every
// 100ms.
func runqueueSpecs(t *testing.T, n int) []JobSpec {
	t.Helper()
	base, err := Baseline(runqueuePi(), 2, 9)
	if err != nil {
		t.Fatalf("Baseline: %v", err)
	}
	specs := make([]JobSpec, n)
	for i := range specs {
		specs[i] = JobSpec{
			Name:     "sparkpi",
			Workload: runqueuePi(),
			Cores:    2,
			Arrival:  time.Duration(i) * 100 * time.Millisecond,
			Baseline: base,
		}
	}
	return specs
}

// runqueueRun plays an n-job stream and returns the report and event-log
// bytes.
func runqueueRun(t *testing.T, n int, seed uint64) (report, log []byte) {
	t.Helper()
	s, err := New(Config{
		Jobs:      runqueueSpecs(t, n),
		PoolCores: 16,
		Seed:      seed,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Completed != n {
		t.Fatalf("completed %d of %d jobs (failed %d)", rep.Completed, n, rep.Failed)
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

// withHeapClock runs fn with the scheduler building heap-backed clocks,
// restoring the timer wheel afterwards.
func withHeapClock(fn func()) {
	newClock = simclock.NewHeapBacked
	defer func() { newClock = simclock.New }()
	fn()
}

// TestRunQueueSameSeed1kByteIdentical is the determinism pin at scale:
// 1000 jobs through the batched run-queue scheduler, twice, must produce
// byte-identical reports and event logs.
func TestRunQueueSameSeed1kByteIdentical(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 120
	}
	repA, logA := runqueueRun(t, n, 1)
	repB, logB := runqueueRun(t, n, 1)
	if !bytes.Equal(repA, repB) {
		t.Error("same-seed 1k-job reports differ")
	}
	if !bytes.Equal(logA, logB) {
		t.Error("same-seed 1k-job event logs differ")
	}
}

// TestWheelMatchesHeapBackedScheduler is the live cross-implementation
// pin: the same seed through the wheel-backed and the heap-backed clock
// must produce byte-identical reports and event logs.
func TestWheelMatchesHeapBackedScheduler(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 60
	}
	wheelRep, wheelLog := runqueueRun(t, n, 5)
	var heapRep, heapLog []byte
	withHeapClock(func() { heapRep, heapLog = runqueueRun(t, n, 5) })
	if !bytes.Equal(wheelRep, heapRep) {
		t.Error("wheel-backed report differs from heap-backed report")
	}
	if !bytes.Equal(wheelLog, heapLog) {
		t.Error("wheel-backed event log differs from heap-backed event log")
	}
}

// runqueueGolden is the committed cross-implementation pin: the report
// bytes and the event-log digest of a fixed mixed-elasticity run,
// recorded with the heap-backed reference clock (-update always records
// through it). The normally-running wheel must reproduce it exactly.
type runqueueGolden struct {
	Note           string          `json:"note"`
	Report         json.RawMessage `json:"report"`
	Events         int             `json:"events"`
	EventlogSHA256 string          `json:"eventlog_sha256"`
}

func goldenRunqueueRun(t *testing.T) (report, log []byte) {
	t.Helper()
	arrivals, err := ParseArrivals("poisson:400ms", 64, 11)
	if err != nil {
		t.Fatalf("ParseArrivals: %v", err)
	}
	base, err := Baseline(runqueuePi(), 2, 9)
	if err != nil {
		t.Fatalf("Baseline: %v", err)
	}
	specs := make([]JobSpec, len(arrivals))
	for i, at := range arrivals {
		specs[i] = JobSpec{
			Name: "sparkpi", Workload: runqueuePi(),
			Cores: 2, Arrival: at, Baseline: base,
		}
	}
	s, err := New(Config{
		Jobs:          specs,
		PoolCores:     8, // undersized: forces queueing, bridging, and reclaim
		Strategy:      StrategyBridge,
		Admission:     AdmissionDeadline,
		ScaleDownIdle: 20 * time.Second,
		SLOFactor:     3,
		Seed:          11,
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

func TestRunQueueCrossImplGolden(t *testing.T) {
	path := filepath.Join("testdata", "runqueue.golden.json")

	if *update {
		var report, log []byte
		withHeapClock(func() { report, log = goldenRunqueueRun(t) })
		sum := sha256.Sum256(log)
		g := runqueueGolden{
			Note: "recorded with simclock.NewHeapBacked (reference impl); " +
				"regenerate with: go test ./internal/cluster -run TestRunQueueCrossImplGolden -update",
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

	report, log := goldenRunqueueRun(t)
	// The golden stores the report indented by MarshalIndent, so compare
	// canonicalized forms: both sides compacted.
	if !bytes.Equal(compactJSON(t, report), compactJSON(t, []byte(want.Report))) {
		t.Error("wheel-backed report differs from recorded heap-backed golden")
	}
	if got := bytes.Count(log, []byte{'\n'}); got != want.Events {
		t.Errorf("event count %d, golden has %d", got, want.Events)
	}
	sum := sha256.Sum256(log)
	if got := hex.EncodeToString(sum[:]); got != want.EventlogSHA256 {
		t.Errorf("event-log digest %s differs from golden %s", got, want.EventlogSHA256)
	}
}

func compactJSON(t *testing.T, in []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := json.Compact(&out, in); err != nil {
		t.Fatalf("compact: %v", err)
	}
	return out.Bytes()
}
