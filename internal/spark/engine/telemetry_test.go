package engine

import (
	"strconv"
	"sync"
	"testing"

	"splitserve/internal/cloud"
	"splitserve/internal/netsim"
	"splitserve/internal/simclock"
	"splitserve/internal/simrand"
	"splitserve/internal/spark/rdd"
	"splitserve/internal/storage"
	"splitserve/internal/telemetry"
)

// TestEnginesOnOneHubShareInstruments: every engine on a hub uses the one
// instrument set the first of them resolved, the per-stage scheduling
// histograms included, and their recordings land in the same instruments.
// Another hub gets a set of its own.
func TestEnginesOnOneHubShareInstruments(t *testing.T) {
	clock := simclock.New(simclock.Epoch)
	net := netsim.New(clock)
	provider := cloud.NewProvider(clock, net, simrand.New(7), cloud.DefaultOptions())
	store := storage.NewLocal(clock, net)
	hub, other := telemetry.NewUntraced(), telemetry.NewUntraced()
	engineOn := func(appID string, h *telemetry.Hub) *Cluster {
		c, err := New(Config{
			AppID: appID, Clock: clock, Net: net, Provider: provider, Store: store, Telem: h,
			Backend: NewStandalone(StandaloneConfig{VMs: []*cloud.VM{provider.ProvisionReadyVM(cloud.M44XLarge)}}),
			Alloc:   DefaultAllocConfig(AllocStatic, 2, 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b, c := engineOn("app-a", hub), engineOn("app-b", hub), engineOn("app-c", other)
	if a.insts != b.insts {
		t.Fatal("two engines on one hub resolved two instrument sets")
	}
	if a.insts == c.insts {
		t.Fatal("engines on different hubs share an instrument set")
	}
	for _, e := range []*Cluster{a, b} {
		ctx := rdd.NewContext()
		src := ctx.Source("ints", 4, func(p int) []rdd.Row { return []rdd.Row{p} }, 10, 8)
		if _, err := e.RunJob(src, "ints"); err != nil {
			t.Fatal(err)
		}
	}
	if got := hub.Counter("engine_tasks_finished_total", telemetry.L("kind", "vm")).Value(); got != 8 {
		t.Errorf("engine_tasks_finished_total{kind=vm} = %v, want both engines' 8 tasks", got)
	}
	stage0 := hub.Histogram("engine_sched_latency_seconds", nil, telemetry.L("stage", "0"))
	if a.insts.stageLatency(0) != stage0 || b.insts.stageLatency(0) != stage0 {
		t.Error("the engines' stage-0 scheduling histogram is not the hub's")
	}
	if n := stage0.Count(); n != 8 {
		t.Errorf("stage-0 scheduling histogram holds %d observations, want both engines' 8", n)
	}
	if n := other.Counter("engine_tasks_finished_total", telemetry.L("kind", "vm")).Value(); n != 0 {
		t.Errorf("the other hub counted %v tasks it never ran", n)
	}
}

// TestSharedInstrumentsFromGoroutines: the hub's instruments may be used
// from several goroutines at once, so the shared set must be too. Each
// goroutine resolves the set and the scheduling histograms of stages the
// others grow the table for; all must get the hub's one set and the hub's
// own histograms.
func TestSharedInstrumentsFromGoroutines(t *testing.T) {
	hub := telemetry.NewUntraced()
	const workers, stages = 4, 16
	sets := make([]*engineInstruments, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := instrumentsFor(hub)
			sets[w] = m
			for s := stages - 1 - w; s >= 0; s-- {
				m.stageLatency(s).Observe(0.001)
			}
		}()
	}
	wg.Wait()
	for w, m := range sets {
		if m != sets[0] {
			t.Fatalf("goroutine %d resolved an instrument set of its own", w)
		}
	}
	for s := 0; s < stages; s++ {
		hst := hub.Histogram("engine_sched_latency_seconds", nil, telemetry.L("stage", strconv.Itoa(s)))
		if sets[0].stageLatency(s) != hst {
			t.Errorf("stage %d: the shared set's histogram is not the hub's", s)
		}
	}
}
