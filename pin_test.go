package splitserve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"splitserve/internal/eventlog"
	"splitserve/internal/experiments"
	"splitserve/internal/workloads/pagerank"
)

var update = flag.Bool("update", false, "rewrite the single-job pins in testdata/")

// pinnedRuns are single-job runs whose outputs are pinned byte for byte,
// one per scenario kind. The hybrid-segue run covers segue, the SplitServe
// backend's vm_request/vm_ready, drains (the Lambda timeout makes its
// Lambdas drain) and removals; the autoscale run covers the standalone
// backend's vm_request/vm_ready. The rest cover the standalone backend's
// owned cores (small, full), the all-Lambda launch and shutdown with an S3
// and with an HDFS shuffle store (qubole, ss-lambda), SplitServe on VM
// cores only (ss-vm) and the hybrid launch without segue (hybrid).
var pinnedRuns = []struct {
	name string
	run  func() (*Result, error)
	// want lists engine events the run must emit under its own app; a
	// "type/kind" entry also requires the executor kind.
	want []eventlog.Type
}{
	{"segue", func() (*Result, error) {
		return Run(ScenarioHybridSegue, smallPageRank(), WithCores(8, 2), WithSeed(1),
			WithSegueAt(5*time.Second), WithLambdaTimeout(5*time.Second))
	}, []eventlog.Type{eventlog.Segue, eventlog.VMRequest, eventlog.VMReady, eventlog.ExecutorDrain, eventlog.ExecutorRemove}},
	{"autoscale", func() (*Result, error) {
		cfg := pagerank.DefaultConfig()
		cfg.Pages, cfg.Partitions, cfg.Iterations, cfg.WorkScale = 20_000, 8, 2, 60
		res, err := experiments.Run(experiments.Scenario{Kind: experiments.SparkAutoscale,
			R: 8, SmallR: 2, VMBoot: 5 * time.Second, Seed: 1}, pagerank.New(cfg))
		if err != nil {
			return nil, err
		}
		return &Result{inner: res}, nil
	}, []eventlog.Type{eventlog.VMRequest, eventlog.VMReady}},
	{"small", func() (*Result, error) {
		return Run(ScenarioSparkSmall, smallPageRank(), WithCores(8, 2), WithSeed(1))
	}, []eventlog.Type{eventlog.ExecutorAdd + "/vm", eventlog.ShuffleWrite, eventlog.ShuffleRead}},
	{"full", func() (*Result, error) {
		return Run(ScenarioSparkFull, smallPageRank(), WithCores(8, 2), WithSeed(1))
	}, []eventlog.Type{eventlog.ExecutorAdd + "/vm", eventlog.ShuffleWrite, eventlog.ShuffleRead}},
	{"qubole", func() (*Result, error) {
		return Run(ScenarioQubole, smallPageRank(), WithCores(8, 2), WithSeed(1))
	}, []eventlog.Type{eventlog.ExecutorAdd + "/lambda", eventlog.ExecutorRemove + "/lambda", eventlog.ShuffleWrite}},
	{"ss-vm", func() (*Result, error) {
		return Run(ScenarioSSFullVM, smallPageRank(), WithCores(8, 2), WithSeed(1))
	}, []eventlog.Type{eventlog.ExecutorAdd + "/vm", eventlog.HDFSWrite, eventlog.HDFSRead}},
	{"ss-lambda", func() (*Result, error) {
		return Run(ScenarioSSLambda, smallPageRank(), WithCores(8, 2), WithSeed(1))
	}, []eventlog.Type{eventlog.ExecutorAdd + "/lambda", eventlog.ExecutorRemove + "/lambda", eventlog.HDFSWrite}},
	{"hybrid", func() (*Result, error) {
		return Run(ScenarioHybrid, smallPageRank(), WithCores(8, 2), WithSeed(1))
	}, []eventlog.Type{eventlog.ExecutorAdd + "/vm", eventlog.ExecutorAdd + "/lambda", eventlog.ExecutorRemove + "/lambda", eventlog.HDFSRead}},
}

// TestSingleJobPins compares each pinned run's report JSON (spans and marks
// included), the sha256 of its event log and its 100-column timeline with
// testdata/pins. Regenerate with:
//
//	go test . -run TestSingleJobPins -update
func TestSingleJobPins(t *testing.T) {
	for _, pr := range pinnedRuns {
		pr := pr
		t.Run(pr.name, func(t *testing.T) {
			res, err := pr.run()
			if err != nil {
				t.Fatal(err)
			}
			report, err := res.ReportJSON()
			if err != nil {
				t.Fatal(err)
			}
			log, err := res.EventLogJSONL()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(log)
			got := map[string][]byte{
				"report.json":   report,
				"events.sha256": []byte(hex.EncodeToString(sum[:]) + "\n"),
				"timeline.txt":  []byte(res.Timeline(100)),
			}
			for suffix, data := range got {
				path := filepath.Join("testdata", "pins", pr.name+"."+suffix)
				if *update {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("read pin (run with -update to regenerate): %v", err)
				}
				if !bytes.Equal(data, want) {
					t.Errorf("%s drifted from %s (regenerate with -update)", suffix, path)
				}
			}

			seen := map[eventlog.Type]bool{}
			for _, e := range res.Events() {
				if e.App != "" {
					seen[e.Type] = true
					seen[e.Type+"/"+eventlog.Type(e.Kind)] = true
				}
			}
			for _, typ := range pr.want {
				if !seen[typ] {
					t.Errorf("pinned run emits no %s event: the pin does not cover that path", typ)
				}
			}
		})
	}
}
