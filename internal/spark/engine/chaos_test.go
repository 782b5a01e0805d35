package engine

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"splitserve/internal/cloud"
	"splitserve/internal/eventlog"
	"splitserve/internal/netsim"
	"splitserve/internal/simclock"
	"splitserve/internal/simrand"
	"splitserve/internal/spark/rdd"
	"splitserve/internal/storage"
)

// chaosJob is a three-stage job (source -> shuffle -> shuffle -> collect)
// whose correct answer is known in closed form: the sum of per-key counts
// equals the row count.
func chaosJob(ctx *rdd.Context, rows, parts int) *rdd.RDD {
	per := rows / parts
	src := ctx.Source("src", parts, func(p int) []rdd.Row {
		out := make([]rdd.Row, per)
		for i := range out {
			out[i] = p*per + i
		}
		return out
	}, 2000, 8)
	kv := src.Map("kv", func(r rdd.Row) rdd.Row { return rdd.KV{K: r.(int) % 13, V: 1} }, 100, 16)
	sum := func(a, b rdd.Row) rdd.Row {
		return rdd.KV{K: a.(rdd.KV).K, V: a.(rdd.KV).V.(int) + b.(rdd.KV).V.(int)}
	}
	first := kv.ReduceByKey("sum1", parts, func(r rdd.Row) rdd.Key { return r.(rdd.KV).K }, sum, 100, 16)
	// Second shuffle: re-key by value bucket, count keys.
	rekey := first.Map("rekey", func(r rdd.Row) rdd.Row {
		return rdd.KV{K: r.(rdd.KV).V.(int) % 5, V: r.(rdd.KV).V.(int)}
	}, 50, 16)
	return rekey.ReduceByKey("sum2", parts/2+1, func(r rdd.Row) rdd.Key { return r.(rdd.KV).K }, sum, 100, 16)
}

func checkChaosResult(t *testing.T, job *Job, rows int) {
	t.Helper()
	total := 0
	for _, r := range job.Rows() {
		total += r.(rdd.KV).V.(int)
	}
	if total != rows {
		t.Fatalf("chaos lost rows: total = %d, want %d", total, rows)
	}
}

// chaosHostLossRun runs chaosJob on eight executors of one VM while three
// random host losses, drawn from seed, strike in the first 30 s. It
// returns the job, the cluster and RunJob's error.
func chaosHostLossRun(t *testing.T, seed uint64, rows int, bus *eventlog.Bus) (*Job, *Cluster, error) {
	t.Helper()
	rng := simrand.New(seed)
	clock := simclock.New(simclock.Epoch)
	net := netsim.New(clock)
	provider := cloud.NewProvider(clock, net, simrand.New(seed+1), cloud.DefaultOptions())
	vm := provider.ProvisionReadyVM(cloud.M44XLarge)
	backend := NewStandalone(StandaloneConfig{VMs: []*cloud.VM{vm}})
	cluster, err := New(Config{
		AppID: "chaos", Clock: clock, Net: net, Provider: provider,
		Store:   storage.NewLocal(clock, net),
		Backend: backend,
		Events:  bus,
		Alloc:   DefaultAllocConfig(AllocStatic, 8, 8),
		// Generous retries: we kill repeatedly.
		MaxTaskAttempts: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Schedule 3 random kills in the first 30 s. The backend replaces
	// nothing (static alloc), so capacity shrinks, but at most 3 of 8
	// executors die.
	for i := 0; i < 3; i++ {
		at := time.Duration(rng.Intn(30000)) * time.Millisecond
		clock.After(at, func() {
			live := cluster.Executors()
			if len(live) <= 2 {
				return
			}
			victim := live[rng.Intn(len(live))]
			// Host loss: blocks AND cache die (worst case).
			cluster.RemoveExecutor(victim.ID, true, "chaos kill")
		})
	}
	ctx := rdd.NewContext()
	job, err := cluster.RunJob(chaosJob(ctx, rows, 8), "chaos")
	return job, cluster, err
}

// TestChaosRandomHostLoss kills random executors (with their host-local
// blocks) at random instants; lineage recovery must always produce the
// exact answer.
func TestChaosRandomHostLoss(t *testing.T) {
	const rows = 5200
	prop := func(seed uint64) bool {
		job, cluster, err := chaosHostLossRun(t, seed, rows, nil)
		if err != nil {
			// Retry exhaustion is allowed only if we killed enough
			// executors to starve the job; anything else is a bug.
			if errors.Is(err, ErrTaskRetriesExhausted) || errors.Is(err, ErrStalled) {
				return len(cluster.Executors()) < 2
			}
			t.Fatalf("seed %d: %v", seed, err)
		}
		total := 0
		for _, r := range job.Rows() {
			total += r.(rdd.KV).V.(int)
		}
		return total == rows
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestChaosHostLossResubmitsIncompleteStage pins the seed that stalled
// the engine: all eight executors share one VM, and the first host loss
// drops two finished map outputs of the still-running rekey stage. Its
// remaining tasks then finish with nothing pending or running while its
// output is incomplete, so the stage must be resubmitted rather than
// left to wait out MaxSimTime.
func TestChaosHostLossResubmitsIncompleteStage(t *testing.T) {
	const rows = 5200
	bus := eventlog.NewBus(simclock.Epoch)
	job, _, err := chaosHostLossRun(t, 0xe716c22475209067, rows, bus)
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	checkChaosResult(t, job, rows)
	resubmitted := false
	for _, ev := range bus.Events() {
		if ev.Type == eventlog.StageResubmitted && ev.Note == "rekey" {
			resubmitted = true
		}
	}
	if !resubmitted {
		t.Fatal("no stage_resubmitted event for rekey: the seed no longer reaches the lost-output path")
	}
}

// TestChaosKillDuringEveryStage kills one executor per stage boundary.
func TestChaosKillDuringEveryStage(t *testing.T) {
	const rows = 5200
	clock := simclock.New(simclock.Epoch)
	net := netsim.New(clock)
	provider := cloud.NewProvider(clock, net, simrand.New(7), cloud.DefaultOptions())
	vm := provider.ProvisionReadyVM(cloud.M44XLarge)
	backend := NewStandalone(StandaloneConfig{VMs: []*cloud.VM{vm}})
	cluster, err := New(Config{
		AppID: "chaos2", Clock: clock, Net: net, Provider: provider,
		Store:           storage.NewLocal(clock, net),
		Backend:         backend,
		Alloc:           DefaultAllocConfig(AllocStatic, 8, 8),
		MaxTaskAttempts: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []time.Duration{2 * time.Second, 4 * time.Second, 6 * time.Second} {
		clock.After(at, func() {
			live := cluster.Executors()
			if len(live) > 3 {
				cluster.RemoveExecutor(live[0].ID, true, "staged kill")
			}
		})
	}
	ctx := rdd.NewContext()
	job, err := cluster.RunJob(chaosJob(ctx, rows, 8), "chaos2")
	if err != nil {
		t.Fatal(err)
	}
	checkChaosResult(t, job, rows)
}

// TestChaosDurableStoreAvoidsRecomputation: with a durable (HDFS-like)
// store, host loss must NOT resubmit completed map stages.
func TestChaosDurableStoreVsLocal(t *testing.T) {
	taskCount := func(durable bool) int {
		clock := simclock.New(simclock.Epoch)
		net := netsim.New(clock)
		provider := cloud.NewProvider(clock, net, simrand.New(7), cloud.DefaultOptions())
		vm := provider.ProvisionReadyVM(cloud.M44XLarge)
		var store storage.Store
		local := storage.NewLocal(clock, net)
		store = local
		if durable {
			store = durableWrap{local}
		}
		backend := NewStandalone(StandaloneConfig{VMs: []*cloud.VM{vm}})
		bus := eventlog.NewBus(simclock.Epoch)
		cluster, err := New(Config{
			AppID: "chaos3", Clock: clock, Net: net, Provider: provider,
			Store: store, Backend: backend, Events: bus,
			Alloc:           DefaultAllocConfig(AllocStatic, 8, 8),
			MaxTaskAttempts: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		clock.After(3*time.Second, func() {
			live := cluster.Executors()
			if len(live) > 2 {
				// Kill WITHOUT dropping blocks for the durable case: the
				// wrapper ignores DropHost, mimicking HDFS.
				cluster.RemoveExecutor(live[0].ID, true, "kill")
			}
		})
		ctx := rdd.NewContext()
		job, err := cluster.RunJob(chaosJob(ctx, 5200, 8), "chaos3")
		if err != nil {
			t.Fatal(err)
		}
		checkChaosResult(t, job, 5200)
		return countEvents(bus, eventlog.TaskStart)
	}
	durable := taskCount(true)
	lossy := taskCount(false)
	if durable > lossy {
		t.Fatalf("durable store ran MORE tasks (%d) than lossy (%d)", durable, lossy)
	}
}

// durableWrap makes a local store pretend to be durable (blocks survive
// DropHost), isolating the tracker-unregistration path.
type durableWrap struct{ *storage.Local }

func (durableWrap) Durable() bool   { return true }
func (durableWrap) DropHost(string) {}

// TestChaosSpeculationPlusFailures: speculation and failures together
// must not double-count results.
func TestChaosSpeculationPlusFailures(t *testing.T) {
	cluster, clock := speculationHarness(t, 5, true)
	clock.After(2*time.Second, func() {
		live := cluster.Executors()
		if len(live) > 3 {
			cluster.RemoveExecutor(live[1].ID, true, "chaos")
		}
	})
	ctx := rdd.NewContext()
	job, err := cluster.RunJob(chaosJob(ctx, 5200, 10), "spec-chaos")
	if err != nil {
		t.Fatal(err)
	}
	checkChaosResult(t, job, 5200)
}
