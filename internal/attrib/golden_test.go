package attrib_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"splitserve/internal/attrib"
	"splitserve/internal/cluster"
	"splitserve/internal/eventlog"
	"splitserve/internal/experiments"
	"splitserve/internal/shard"
	"splitserve/internal/workloads"
	"splitserve/internal/workloads/pagerank"
	"splitserve/internal/workloads/shufflereuse"
)

var update = flag.Bool("update", false, "rewrite testdata/attrib.golden.json")

// goldenLogs are the event logs whose attribution reports are pinned byte
// for byte. Each reaches a different part of the pass: warm-pool
// executors and /tmp cache hits (in apps of eight executors, whose dollar
// total sums many lifetimes), tenants learned from shard events, admission
// delays, and an engine-only log without cluster events. check asserts
// the premise that makes the log worth pinning.
var goldenLogs = []struct {
	name  string
	log   func(t *testing.T) []eventlog.Event
	check func(t *testing.T, seen map[eventlog.Type]int)
}{
	{"bridged-warmpool", func(t *testing.T) []eventlog.Event {
		arrivals, err := cluster.ParseArrivals("poisson:12s", 4, 3)
		if err != nil {
			t.Fatalf("ParseArrivals: %v", err)
		}
		var jobs []cluster.JobSpec
		for i, w := range []workloads.Workload{reuseJob(), piJob(8, 2), reuseJob(), reuseJob()} {
			base, err := cluster.Baseline(w, 8, 9)
			if err != nil {
				t.Fatalf("Baseline: %v", err)
			}
			jobs = append(jobs, cluster.JobSpec{Name: w.Name(), Workload: w, Cores: 8,
				Arrival: arrivals[i], Baseline: base})
		}
		return clusterEvents(t, cluster.Config{
			Jobs:       jobs,
			PoolCores:  4,
			Policy:     cluster.FairShare(),
			Strategy:   cluster.StrategyBridge,
			SLOFactor:  3,
			Seed:       3,
			ColdStarts: true,
			WarmPool:   4,
			TmpCache:   true,
		})
	}, func(t *testing.T, seen map[eventlog.Type]int) {
		need(t, seen, eventlog.LambdaWarmHit, eventlog.TmpCacheHit, eventlog.LambdaInvoke)
	}},
	{"sharded-steals", shardedEvents, func(t *testing.T, seen map[eventlog.Type]int) {
		need(t, seen, eventlog.ShardAssign, eventlog.ShardSteal)
	}},
	{"deadline-delay", func(t *testing.T) []eventlog.Event {
		var jobs []cluster.JobSpec
		for i, secs := range []float64{1, 4, 2, 3} {
			w := piJob(4, secs)
			base, err := cluster.Baseline(w, 4, 9)
			if err != nil {
				t.Fatalf("Baseline: %v", err)
			}
			jobs = append(jobs, cluster.JobSpec{Name: "sparkpi", Workload: w, Cores: 4,
				Arrival: time.Duration(i) * time.Second, Baseline: base})
		}
		return clusterEvents(t, cluster.Config{
			Jobs:      jobs,
			PoolCores: 6,
			Policy:    cluster.FairShare(),
			Strategy:  cluster.StrategyQueue,
			SLOFactor: 1.5,
			Seed:      1,
			Admission: cluster.AdmissionDeadline,
		})
	}, func(t *testing.T, seen map[eventlog.Type]int) {
		need(t, seen, eventlog.ClusterDelay, eventlog.ClusterShed, eventlog.ClusterAdmit)
		if seen[eventlog.ClusterAdmit]+seen[eventlog.ClusterShed] != 4 || seen[eventlog.ClusterDelay] <= seen[eventlog.ClusterShed] {
			t.Errorf("premise: want a delayed job that is admitted later, got %d delays, %d sheds, %d admissions",
				seen[eventlog.ClusterDelay], seen[eventlog.ClusterShed], seen[eventlog.ClusterAdmit])
		}
	}},
	{"engine-only", func(t *testing.T) []eventlog.Event {
		cfg := pagerank.DefaultConfig()
		cfg.Pages, cfg.Partitions, cfg.Iterations, cfg.WorkScale = 20_000, 8, 2, 60
		res, err := experiments.Run(experiments.Scenario{Kind: experiments.SSHybridSegue,
			R: 8, SmallR: 2, SegueAt: 5 * time.Second, LambdaTimeout: 5 * time.Second, Seed: 1},
			pagerank.New(cfg))
		if err != nil {
			t.Fatalf("experiments.Run: %v", err)
		}
		return res.Events.Events()
	}, func(t *testing.T, seen map[eventlog.Type]int) {
		need(t, seen, eventlog.JobStart, eventlog.Segue, eventlog.ExecutorRemove)
		if seen[eventlog.ClusterArrive] != 0 {
			t.Errorf("premise: engine-only log carries %d cluster events", seen[eventlog.ClusterArrive])
		}
	}},
}

// reuseJob is the default shuffle-reuse workload: its repeated reads of
// one shuffle hit the /tmp cache of the warm environments that wrote it.
func reuseJob() workloads.Workload { return shufflereuse.New(shufflereuse.DefaultConfig()) }

// shardedEvents runs one busy and one light tenant on two queueing shards,
// so the light shard steals the busy shard's queued jobs.
func shardedEvents(t *testing.T) []eventlog.Event {
	tenantOn := func(s int) string {
		for i := 0; ; i++ {
			if name := fmt.Sprintf("t%02d", i); shard.ShardOf(name, 2) == s {
				return name
			}
		}
	}
	busy, light := tenantOn(0), tenantOn(1)
	w := piJob(4, 2)
	base, err := cluster.Baseline(w, 4, 9)
	if err != nil {
		t.Fatalf("Baseline: %v", err)
	}
	var specs []cluster.JobSpec
	for i := 0; i < 12; i++ {
		tenant := busy
		if i%6 == 5 {
			tenant = light
		}
		specs = append(specs, cluster.JobSpec{Name: "sparkpi", Workload: piJob(4, 2), Tenant: tenant,
			Arrival: time.Duration(i) * time.Second, Cores: 4, Baseline: base})
	}
	m, err := shard.New(shard.Config{Shards: 2, Cluster: cluster.Config{
		Jobs: specs, PoolCores: 8, Seed: 5, Strategy: cluster.StrategyQueue,
	}})
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("shard.Run: %v", err)
	}
	return m.Events()
}

func need(t *testing.T, seen map[eventlog.Type]int, types ...eventlog.Type) {
	t.Helper()
	for _, typ := range types {
		if seen[typ] == 0 {
			t.Errorf("premise: the log carries no %s event", typ)
		}
	}
}

// attribGolden is one pinned report: its job count and the sha256 of its
// JSON.
type attribGolden struct {
	Jobs   int    `json:"jobs"`
	SHA256 string `json:"sha256"`
}

// TestAttributionGolden pins the bytes of attrib.Analyze(...).JSON() for
// each of goldenLogs, and checks each report survives a ParseReport round
// trip. Regenerate with:
//
//	go test ./internal/attrib -run TestAttributionGolden -update
func TestAttributionGolden(t *testing.T) {
	path := filepath.Join("testdata", "attrib.golden.json")
	got := map[string]attribGolden{}
	for _, g := range goldenLogs {
		events := g.log(t)
		seen := map[eventlog.Type]int{}
		for _, e := range events {
			seen[e.Type]++
		}
		g.check(t, seen)
		rep := attrib.Analyze(events)
		js, err := rep.JSON()
		if err != nil {
			t.Fatalf("%s: JSON: %v", g.name, err)
		}
		sum := sha256.Sum256(js)
		got[g.name] = attribGolden{Jobs: len(rep.Jobs), SHA256: hex.EncodeToString(sum[:])}
		// The pinned report parses back to the same bytes and diffs
		// against the report it came from as all zeros.
		parsed, err := attrib.ParseReport(js)
		if err != nil {
			t.Fatalf("%s: ParseReport: %v", g.name, err)
		}
		if again, err := parsed.JSON(); err != nil || !bytes.Equal(again, js) {
			t.Errorf("%s: the parsed report re-encodes to other bytes (err %v)", g.name, err)
		}
		if d := attrib.DiffReports(parsed, rep); !d.AllZero() {
			t.Errorf("%s: the parsed report diffs against Analyze's:\n%s", g.name, d)
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	var want map[string]attribGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden holds %d reports, the test builds %d", len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok || w != g {
			t.Errorf("%s: attribution report = %+v, golden %+v", name, g, w)
		}
	}
}
