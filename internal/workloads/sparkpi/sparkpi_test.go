package sparkpi

import (
	"fmt"
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

func testCluster(t *testing.T, execs int) (*engine.Cluster, *simclock.Clock, *metrics.View) {
	t.Helper()
	clock := simclock.New(simclock.Epoch)
	net := netsim.New(clock)
	provider := cloud.NewProvider(clock, net, simrand.New(5), cloud.DefaultOptions())
	vm := provider.ProvisionReadyVM(cloud.M416XLarge)
	hub := telemetry.New(clock)
	bus := eventlog.NewBus(simclock.Epoch)
	cluster, err := engine.New(engine.Config{
		AppID: "pi-test", Clock: clock, Net: net, Provider: provider,
		Telem: hub, Events: bus,
		Store:   storage.NewLocal(clock, net),
		Backend: engine.NewStandalone(engine.StandaloneConfig{VMs: []*cloud.VM{vm}}),
		Alloc:   engine.DefaultAllocConfig(engine.AllocStatic, execs, execs),
	})
	if err != nil {
		t.Fatal(err)
	}
	return cluster, clock, metrics.Attach(bus, clock, hub, "pi-test")
}

func TestPiEstimateAccurate(t *testing.T) {
	cluster, _, _ := testCluster(t, 16)
	cfg := DefaultConfig()
	cfg.Partitions = 16
	cfg.Darts = 1e9
	rep, err := New(cfg).Run(cluster)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Answer, "pi ≈ 3.14") {
		t.Fatalf("answer = %q", rep.Answer)
	}
}

func TestModeledTimeMatchesDartBudget(t *testing.T) {
	// 1e10 darts at 0.4 units/dart over 64 tasks at 50e6 units/s
	// = 1.25s of modelled compute per task; wall-clock for the test
	// stays small because only 1e6 darts per task are really thrown.
	cluster, clock, view := testCluster(t, 64)
	rep, err := New(DefaultConfig()).Run(cluster)
	if err != nil {
		t.Fatal(err)
	}
	spans := view.TaskSpans()
	if len(spans) != 64 {
		t.Fatalf("spans = %d", len(spans))
	}
	for _, s := range spans {
		d := s.End.Sub(s.Start).Seconds()
		if d < 1.2 || d > 1.6 {
			t.Fatalf("task duration = %.3fs, want ~1.25s (answer %s)", d, rep.Answer)
		}
	}
	if clock.Since(simclock.Epoch) <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestHalfExecutorsDoublesTime(t *testing.T) {
	elapsed := func(execs int) float64 {
		cluster, clock, _ := testCluster(t, execs)
		cfg := DefaultConfig()
		cfg.CostPerDart = 3 // compute-dominated so parallelism shows
		if _, err := New(cfg).Run(cluster); err != nil {
			t.Fatal(err)
		}
		return clock.Since(simclock.Epoch).Seconds()
	}
	d64 := elapsed(64)
	d16 := elapsed(16)
	ratio := d16 / d64
	if ratio < 2.5 || ratio > 5 {
		t.Fatalf("16 vs 64 executors ratio = %.2f, want ~4", ratio)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Darts: 0, Partitions: 1})
}

// TestNameMatchesSprintf holds the workload name byte-equal to the
// fmt.Sprintf("sparkpi-%g", float64(darts)) form it replaced, including
// counts printed in the e form.
func TestNameMatchesSprintf(t *testing.T) {
	for _, darts := range []int64{
		1, 7, 100, 200000, 999999, 1000000, 1234567, 20_000_000,
		1e10, 1<<53 + 1, 1 << 62, 1<<63 - 1,
	} {
		want := fmt.Sprintf("sparkpi-%g", float64(darts))
		if got := New(Config{Darts: darts, Partitions: 1}).Name(); got != want {
			t.Errorf("darts %d: name %q, want %q", darts, got, want)
		}
	}
}
