package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"splitserve/internal/eventlog"
	"splitserve/internal/spark/engine"
	"splitserve/internal/spark/rdd"
	"splitserve/internal/workloads"
)

// This file pins the cluster layer's Lambda lifetime handling, which
// ordinary runs never reach because their jobs end within minutes: the
// drain of a Lambda executor nearing the platform's 15-minute cap, the
// hard expiry of one whose task outlives it, and what both do to
// warm-pool environments.

// wavesWork runs map/reduce waves of parts tasks, each partition of rows
// rows at cost work units per row, until at least waves jobs have run and
// for at least until of virtual time.
type wavesWork struct {
	waves, rows, parts int
	cost               float64
	until              time.Duration
}

func (w *wavesWork) Name() string            { return "waves" }
func (w *wavesWork) DefaultParallelism() int { return w.parts }
func (w *wavesWork) SLO() time.Duration      { return time.Hour }

func (w *wavesWork) Run(c *engine.Cluster) (*workloads.Report, error) {
	start := c.Clock().Now()
	n := 0
	for ; n < w.waves || c.Clock().Since(start) < w.until; n++ {
		src := rdd.NewContext().Source("src", w.parts, func(p int) []rdd.Row {
			out := make([]rdd.Row, w.rows)
			for i := range out {
				out[i] = p*w.rows + i
			}
			return out
		}, w.cost, 8)
		kv := src.Map("kv", func(r rdd.Row) rdd.Row { return rdd.KV{K: r.(int) % 8, V: 1} }, 2, 16)
		sum := kv.ReduceByKey("sum", w.parts,
			func(r rdd.Row) rdd.Key { return r.(rdd.KV).K },
			func(a, b rdd.Row) rdd.Row {
				return rdd.KV{K: a.(rdd.KV).K, V: a.(rdd.KV).V.(int) + b.(rdd.KV).V.(int)}
			}, 2, 16)
		if _, err := c.RunJob(sum, "wave"); err != nil {
			return nil, err
		}
	}
	return &workloads.Report{Workload: w.Name(), Answer: fmt.Sprint(n), Jobs: n}, nil
}

// lifetimeRun plays two bridged jobs on a 4-core FIFO pool with a warm
// pool of 6 and the /tmp cache: "long" runs ~47 s waves on 4 VM cores and
// 4 Lambdas for 17 minutes, so its Lambdas cross the lifetime margin
// between tasks and drain; "slow" runs two waves of ~12-minute tasks on 2
// Lambdas, so its second wave outlives the cap and the Lambdas expire
// mid-task.
func lifetimeRun(t *testing.T) (*Scheduler, []byte, []byte) {
	t.Helper()
	s, err := New(Config{
		Jobs: []JobSpec{
			{Name: "long", Workload: &wavesWork{rows: 2000, parts: 8, cost: 1e6, until: 17 * time.Minute},
				Cores: 8, Baseline: time.Minute},
			{Name: "slow", Workload: &wavesWork{waves: 1, rows: 100, parts: 4, cost: 3e8},
				Cores: 2, Arrival: 10 * time.Second, Baseline: time.Minute},
		},
		PoolCores: 4,
		Policy:    FIFO(),
		Strategy:  StrategyBridge,
		WarmPool:  6,
		TmpCache:  true,
		Seed:      5,
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

// TestLambdaLifetimeGolden pins the report bytes and event-log digest of
// the lifetime run, and checks it reaches the margin drain, the expiry
// and the warm pool. Regenerate with:
//
//	go test ./internal/cluster -run TestLambdaLifetimeGolden -update
func TestLambdaLifetimeGolden(t *testing.T) {
	s, report, log := lifetimeRun(t)

	added := map[string]int64{} // executor ID -> registration, µs
	marginDrains, expiries, warmHits := 0, 0, 0
	for _, ev := range s.Events().Events() {
		switch {
		case ev.Type == eventlog.ExecutorAdd:
			added[ev.Exec] = ev.TS
		case ev.Type == eventlog.ExecutorDrain && ev.Kind == "lambda" && ev.TS-added[ev.Exec] > (14*time.Minute-2*time.Second).Microseconds():
			marginDrains++
		case ev.Type == eventlog.ExecutorRemove && ev.Note == "lambda lifetime expired":
			expiries++
		case ev.Type == eventlog.LambdaWarmHit:
			warmHits++
		}
	}
	if marginDrains == 0 || expiries == 0 || warmHits == 0 {
		t.Fatalf("premise: want lifetime-margin drains, expiries and warm hits, got %d, %d, %d",
			marginDrains, expiries, warmHits)
	}
	if n := s.warm.InUse(); n != 0 {
		t.Errorf("%d warm-pool environments still in use after the run", n)
	}

	path := filepath.Join("testdata", "lifetime.golden.json")
	if *update {
		sum := sha256.Sum256(log)
		g := runqueueGolden{
			Note:           "regenerate with: go test ./internal/cluster -run TestLambdaLifetimeGolden -update",
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
		t.Error("lifetime report differs from golden")
	}
	if got := bytes.Count(log, []byte{'\n'}); got != want.Events {
		t.Errorf("event count %d, golden has %d", got, want.Events)
	}
	sum := sha256.Sum256(log)
	if got := hex.EncodeToString(sum[:]); got != want.EventlogSHA256 {
		t.Errorf("event-log digest %s differs from golden %s", got, want.EventlogSHA256)
	}
}
