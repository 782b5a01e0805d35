package kmeans

import (
	"strings"
	"testing"

	"splitserve/internal/cloud"
	"splitserve/internal/eventlog"
	"splitserve/internal/metrics"
	"splitserve/internal/netsim"
	"splitserve/internal/simclock"
	"splitserve/internal/simrand"
	"splitserve/internal/spark/engine"
	"splitserve/internal/storage"
	"splitserve/internal/telemetry"
)

func testCluster(t *testing.T, execs, execMemMB int) (*engine.Cluster, *simclock.Clock, *metrics.View) {
	t.Helper()
	clock := simclock.New(simclock.Epoch)
	net := netsim.New(clock)
	provider := cloud.NewProvider(clock, net, simrand.New(5), cloud.DefaultOptions())
	vm := provider.ProvisionReadyVM(cloud.M44XLarge)
	hub := telemetry.New(clock)
	bus := eventlog.NewBus(simclock.Epoch)
	cluster, err := engine.New(engine.Config{
		AppID: "km-test", Clock: clock, Net: net, Provider: provider,
		Telem: hub, Events: bus,
		Store: storage.NewLocal(clock, net),
		Backend: engine.NewStandalone(engine.StandaloneConfig{
			VMs:          []*cloud.VM{vm},
			ExecMemoryMB: execMemMB,
		}),
		Alloc: engine.DefaultAllocConfig(engine.AllocStatic, execs, execs),
	})
	if err != nil {
		t.Fatal(err)
	}
	return cluster, clock, metrics.Attach(bus, clock, hub, "km-test")
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Points = 20_000
	cfg.Partitions = 8
	cfg.K = 5
	cfg.Dims = 8
	return cfg
}

func TestKMeansConverges(t *testing.T) {
	cluster, _, _ := testCluster(t, 8, 0)
	rep, err := New(smallConfig()).Run(cluster)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Answer, "converged") {
		t.Fatalf("answer = %q", rep.Answer)
	}
	if rep.Jobs < 1 || rep.Jobs > 5 {
		t.Fatalf("jobs = %d", rep.Jobs)
	}
}

func TestKMeansIterationsReuseCache(t *testing.T) {
	cluster, clock, view := testCluster(t, 8, 0)
	cfg := smallConfig()
	cfg.ConvergenceDist = -1 // force all 5 iterations
	w := New(cfg)
	start := clock.Now()
	rep, err := w.Run(cluster)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != cfg.MaxIterations {
		t.Fatalf("jobs = %d, want %d", rep.Jobs, cfg.MaxIterations)
	}
	_ = start
	// With the source cached, later iterations must be much cheaper than
	// the first: check that > 35% of total time is the first job.
	spans := view.StageSpans()
	if len(spans) == 0 {
		t.Fatal("no stage spans")
	}
	firstEnd := spans[0].End
	total := clock.Since(simclock.Epoch)
	firstFrac := firstEnd.Sub(simclock.Epoch).Seconds() / total.Seconds()
	if firstFrac < 0.3 {
		t.Fatalf("first (cache-building) stage only %.0f%% of runtime; cache likely unused", firstFrac*100)
	}
}

func TestKMeansMemoryPressureSlowsDown(t *testing.T) {
	// The paper's 10x story: when the cached dataset does not fit executor
	// memory, eviction forces recomputation every iteration. Compare a
	// 4-executor run with ample memory vs one with tight memory.
	cfg := smallConfig()
	cfg.Points = 60_000
	cfg.RowBytes = 30000 // ~1.8GB dataset, modeled (JVM-bloated rows)
	cfg.ConvergenceDist = -1

	run := func(memMB int) float64 {
		cluster, clock, _ := testCluster(t, 4, memMB)
		if _, err := New(cfg).Run(cluster); err != nil {
			t.Fatal(err)
		}
		return clock.Since(simclock.Epoch).Seconds()
	}
	ample := run(8192) // cache fits easily
	tight := run(1024) // 4 execs x ~420MB cache < dataset
	if tight < ample*1.5 {
		t.Fatalf("memory pressure effect missing: ample=%.1fs tight=%.1fs", ample, tight)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	run := func() string {
		cluster, _, _ := testCluster(t, 8, 0)
		rep, err := New(smallConfig()).Run(cluster)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Answer
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %q vs %q", a, b)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Points: 0, Dims: 1, K: 1, Partitions: 1})
}
