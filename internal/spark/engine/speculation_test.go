package engine

import (
	"testing"
	"time"

	"splitserve/internal/cloud"
	"splitserve/internal/eventlog"
	"splitserve/internal/netsim"
	"splitserve/internal/simclock"
	"splitserve/internal/simrand"
	"splitserve/internal/spark/rdd"
	"splitserve/internal/storage"
)

// manualBackend lets tests register executors with custom specs.
type manualBackend struct{ c *Cluster }

func (b *manualBackend) Name() string                       { return "manual" }
func (b *manualBackend) Start(c *Cluster)                   { b.c = c }
func (b *manualBackend) SetDesiredTotal(int)                {}
func (b *manualBackend) AllowAssign(*Executor) bool         { return true }
func (b *manualBackend) ExecutorDrained(e *Executor)        { b.c.RemoveExecutor(e.ID, false, "drained") }
func (b *manualBackend) ReleaseIdle(*Executor)              {}
func (b *manualBackend) JobSubmitted(string, time.Duration) {}
func (b *manualBackend) JobFinished()                       {}

// speculationHarness builds a cluster with n normal executors and one
// crippled straggler (10x slower CPU).
func speculationHarness(t *testing.T, n int, speculation bool) (*Cluster, *simclock.Clock) {
	t.Helper()
	clock := simclock.New(simclock.Epoch)
	net := netsim.New(clock)
	provider := cloud.NewProvider(clock, net, simrand.New(3), cloud.DefaultOptions())
	vm := provider.ProvisionReadyVM(cloud.M416XLarge)
	backend := &manualBackend{}
	spec := DefaultSpeculationConfig()
	spec.Enabled = speculation
	spec.Quantile = 0.5
	cluster, err := New(Config{
		AppID: "spec-test", Clock: clock, Net: net, Provider: provider,
		Store:       storage.NewLocal(clock, net),
		Backend:     backend,
		Events:      eventlog.NewBus(simclock.Epoch),
		Alloc:       DefaultAllocConfig(AllocStatic, n+1, n+1),
		Speculation: spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	cl := VMExecutorClient(vm)
	for i := 0; i < n; i++ {
		cluster.RegisterExecutor(ExecutorSpec{
			ID: "fast-" + string(rune('a'+i)), Kind: ExecVM, HostID: vm.ID,
			MemoryMB: 4096, CPUShare: 1, IO: cl, Serve: cl, VM: vm,
		})
	}
	cluster.RegisterExecutor(ExecutorSpec{
		ID: "straggler", Kind: ExecVM, HostID: vm.ID,
		MemoryMB: 4096, CPUShare: 0.1, IO: cl, Serve: cl, VM: vm,
	})
	return cluster, clock
}

// stragglerJob is a single map stage whose tasks take ~1s on a fast core.
func stragglerJob(parts int) *rdd.RDD {
	ctx := rdd.NewContext()
	return ctx.Source("work", parts, func(p int) []rdd.Row {
		out := make([]rdd.Row, 100)
		for i := range out {
			out[i] = i
		}
		return out
	}, 500_000, 8) // 100 rows x 5e5 units = 1s per task at full speed
}

func TestSpeculationRescuesStraggler(t *testing.T) {
	run := func(speculate bool) (time.Duration, int) {
		cluster, clock := speculationHarness(t, 4, speculate)
		job, err := cluster.RunJob(stragglerJob(10), "spec")
		if err != nil {
			t.Fatal(err)
		}
		if len(job.Rows()) != 1000 {
			t.Fatalf("rows = %d", len(job.Rows()))
		}
		return clock.Since(simclock.Epoch), countEvents(cluster.cfg.Events, eventlog.TaskSpeculated)
	}
	slow, specEvents0 := run(false)
	fast, specEvents1 := run(true)
	if specEvents0 != 0 {
		t.Fatalf("speculation fired while disabled: %d", specEvents0)
	}
	if specEvents1 == 0 {
		t.Fatal("speculation never fired")
	}
	// Without speculation the straggler's ~10s task gates the job; with it
	// a duplicate on a fast core finishes in ~1s.
	if fast >= slow {
		t.Fatalf("speculation did not help: %v vs %v", fast, slow)
	}
	if slow-fast < 3*time.Second {
		t.Fatalf("speculation benefit too small: %v vs %v", fast, slow)
	}
}

func TestSpeculationCorrectResults(t *testing.T) {
	cluster, _ := speculationHarness(t, 4, true)
	ctx := rdd.NewContext()
	src := ctx.Source("v", 10, func(p int) []rdd.Row {
		out := make([]rdd.Row, 50)
		for i := range out {
			out[i] = p*50 + i
		}
		return out
	}, 500_000, 8)
	kv := src.Map("kv", func(r rdd.Row) rdd.Row { return rdd.KV{K: r.(int) % 7, V: 1} }, 1000, 16)
	red := kv.ReduceByKey("sum", 4,
		func(r rdd.Row) rdd.Key { return r.(rdd.KV).K },
		func(a, b rdd.Row) rdd.Row {
			return rdd.KV{K: a.(rdd.KV).K, V: a.(rdd.KV).V.(int) + b.(rdd.KV).V.(int)}
		}, 1000, 16)
	job, err := cluster.RunJob(red, "spec-shuffle")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range job.Rows() {
		total += r.(rdd.KV).V.(int)
	}
	if total != 500 {
		t.Fatalf("speculated shuffle lost rows: total = %d, want 500", total)
	}
}

func TestSpeculationDeterministic(t *testing.T) {
	run := func() time.Duration {
		cluster, clock := speculationHarness(t, 4, true)
		if _, err := cluster.RunJob(stragglerJob(10), "spec"); err != nil {
			t.Fatal(err)
		}
		return clock.Since(simclock.Epoch)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic with speculation: %v vs %v", a, b)
	}
}

func TestStageStatsMedian(t *testing.T) {
	s := &stageStats{durations: []time.Duration{3 * time.Second, time.Second, 2 * time.Second}}
	if got := s.median(); got != 2*time.Second {
		t.Fatalf("median = %v", got)
	}
	empty := &stageStats{}
	if empty.median() != 0 {
		t.Fatal("empty median not zero")
	}
}

func TestSettleTwinNoTwin(t *testing.T) {
	cluster, _ := speculationHarness(t, 1, true)
	if !cluster.sched.settleTwin(&Task{}) {
		t.Fatal("twinless task should win")
	}
}
