package core

import (
	"testing"
	"time"

	"splitserve/internal/cloud"
	"splitserve/internal/eventlog"
	"splitserve/internal/hdfs"
	"splitserve/internal/netsim"
	"splitserve/internal/simclock"
	"splitserve/internal/simrand"
	"splitserve/internal/spark/engine"
	"splitserve/internal/spark/rdd"
	"splitserve/internal/storage"
)

// fixture is a SplitServe cluster: a master m4.xlarge hosting HDFS, plus
// optional worker VMs. Its engine emits onto bus.
type fixture struct {
	clock    *simclock.Clock
	net      *netsim.Network
	provider *cloud.Provider
	fs       *hdfs.Cluster
	backend  *SplitServe
	cluster  *engine.Cluster
	ctx      *rdd.Context
	bus      *eventlog.Bus
}

// count returns how many events of type typ the engine emitted.
func (f *fixture) count(typ eventlog.Type) int {
	n := 0
	for _, e := range f.bus.Events() {
		if e.Type == typ {
			n++
		}
	}
	return n
}

// lambdas returns every Lambda the backend launched; a check that loops
// over them must see at least one.
func (f *fixture) lambdas(t *testing.T) []*cloud.Lambda {
	t.Helper()
	ls := f.backend.fleet.Lambdas()
	if len(ls) == 0 {
		t.Fatal("the backend launched no Lambda")
	}
	return ls
}

func newFixture(t *testing.T, cfg Config, execs int, slo time.Duration, store storage.Store) *fixture {
	t.Helper()
	clock := simclock.New(simclock.Epoch)
	net := netsim.New(clock)
	provider := cloud.NewProvider(clock, net, simrand.New(11), cloud.DefaultOptions())
	master := provider.ProvisionReadyVM(cloud.M4XLarge)
	fs := hdfs.NewCluster(clock, net, []*netsim.Pool{master.EBS})
	if store == nil {
		store = fs
	}
	backend := New(cfg)
	bus := eventlog.NewBus(simclock.Epoch)
	cluster, err := engine.New(engine.Config{
		AppID:    "ss-test",
		Clock:    clock,
		Net:      net,
		Provider: provider,
		Store:    store,
		Backend:  backend,
		Events:   bus,
		Alloc:    engine.DefaultAllocConfig(engine.AllocStatic, execs, execs),
		SLO:      slo,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		clock: clock, net: net, provider: provider, fs: fs,
		backend: backend, cluster: cluster, ctx: rdd.NewContext(), bus: bus,
	}
}

func workJob(ctx *rdd.Context, rows, parts int, costPerRow float64) *rdd.RDD {
	per := rows / parts
	src := ctx.Source("src", parts, func(p int) []rdd.Row {
		out := make([]rdd.Row, per)
		for i := range out {
			out[i] = p*per + i
		}
		return out
	}, costPerRow, 8)
	kv := src.Map("kv", func(r rdd.Row) rdd.Row { return rdd.KV{K: r.(int) % 32, V: 1} }, 2, 16)
	return kv.ReduceByKey("sum", parts,
		func(r rdd.Row) rdd.Key { return r.(rdd.KV).K },
		func(a, b rdd.Row) rdd.Row {
			return rdd.KV{K: a.(rdd.KV).K, V: a.(rdd.KV).V.(int) + b.(rdd.KV).V.(int)}
		}, 2, 16)
}

func checkSum(t *testing.T, job *engine.Job, want int) {
	t.Helper()
	total := 0
	for _, r := range job.Rows() {
		total += r.(rdd.KV).V.(int)
	}
	if total != want {
		t.Fatalf("result sum = %d, want %d", total, want)
	}
}

func TestHybridLaunchSplitsAcrossSubstrates(t *testing.T) {
	clockVM := cloud.M44XLarge
	f := newFixture(t, Config{}, 0, 0, nil)
	worker := f.provider.ProvisionReadyVM(clockVM)
	cfg := DefaultConfig([]*cloud.VM{worker}, 3) // r=3
	f.backend.cfg = cfg
	f.cluster = mustCluster(t, f, cfg, 16, 0, nil)

	job, err := f.cluster.RunJob(workJob(f.ctx, 160_000, 16, 500), "hybrid")
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, job, 160_000)
	vms, lambdas := 0, 0
	for _, e := range f.cluster.AllExecutors() {
		switch e.Kind {
		case engine.ExecVM:
			vms++
		case engine.ExecLambda:
			lambdas++
		}
	}
	if vms != 3 || lambdas != 13 {
		t.Fatalf("executor mix = %d VM / %d Lambda, want 3/13", vms, lambdas)
	}
	// Both kinds must have actually run tasks.
	ranOn := map[engine.ExecKind]int{}
	for _, e := range f.cluster.AllExecutors() {
		ranOn[e.Kind] += e.TasksRun
	}
	if ranOn[engine.ExecVM] == 0 || ranOn[engine.ExecLambda] == 0 {
		t.Fatalf("tasks not split across substrates: %v", ranOn)
	}
}

// mustCluster rebuilds the engine cluster with a fresh backend config
// (helper for fixtures created before the worker VM exists).
func mustCluster(t *testing.T, f *fixture, cfg Config, execs int, slo time.Duration, store storage.Store) *engine.Cluster {
	t.Helper()
	if store == nil {
		store = f.fs
	}
	f.backend = New(cfg)
	cluster, err := engine.New(engine.Config{
		AppID:    "ss-test",
		Clock:    f.clock,
		Net:      f.net,
		Provider: f.provider,
		Store:    store,
		Backend:  f.backend,
		Events:   f.bus,
		Alloc:    engine.DefaultAllocConfig(engine.AllocStatic, execs, execs),
		SLO:      slo,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.cluster = cluster
	return cluster
}

func TestAllLambdaLaunch(t *testing.T) {
	f := newFixture(t, DefaultConfig(nil, 0), 8, 0, nil)
	job, err := f.cluster.RunJob(workJob(f.ctx, 80_000, 8, 500), "all-lambda")
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, job, 80_000)
	for _, e := range f.cluster.AllExecutors() {
		if e.Kind != engine.ExecLambda {
			t.Fatalf("non-lambda executor %s in all-lambda mode", e.ID)
		}
	}
	if len(f.cluster.AllExecutors()) != 8 {
		t.Fatalf("executors = %d", len(f.cluster.AllExecutors()))
	}
}

func TestAllVMWhenEnoughFreeCores(t *testing.T) {
	f := newFixture(t, Config{}, 0, 0, nil)
	worker := f.provider.ProvisionReadyVM(cloud.M44XLarge)
	cfg := DefaultConfig([]*cloud.VM{worker}, 16)
	mustCluster(t, f, cfg, 16, 0, nil)
	job, err := f.cluster.RunJob(workJob(f.ctx, 80_000, 16, 200), "all-vm")
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, job, 80_000)
	for _, e := range f.cluster.AllExecutors() {
		if e.Kind != engine.ExecVM {
			t.Fatalf("lambda launched despite sufficient VM cores")
		}
	}
}

func TestSegueMovesWorkToVMs(t *testing.T) {
	f := newFixture(t, Config{}, 0, 0, nil)
	worker := f.provider.ProvisionReadyVM(cloud.M44XLarge)
	cfg := DefaultConfig([]*cloud.VM{worker}, 3)
	cfg.Segue = true
	cfg.SegueVMType = cloud.M44XLarge
	cfg.SegueBootOverride = 45 * time.Second
	cfg.LambdaExecutorTimeout = 30 * time.Second
	mustCluster(t, f, cfg, 16, 10*time.Minute, nil)

	// A long job: several sequential waves so the segue happens mid-run
	// (each wave is ~12s of work; the segue VM arrives at 45s).
	var job *engine.Job
	var err error
	for i := 0; i < 6; i++ {
		ctx := rdd.NewContext()
		job, err = f.cluster.RunJob(workJob(ctx, 400_000, 16, 24000), "wave")
		if err != nil {
			t.Fatal(err)
		}
		checkSum(t, job, 400_000)
	}

	if f.count(eventlog.Segue) == 0 {
		t.Fatal("segue never commenced")
	}
	if f.count(eventlog.ExecutorDrain) == 0 {
		t.Fatal("no lambda was drained")
	}
	// Graceful segue: no task failures.
	if got := f.count(eventlog.TaskFailed); got != 0 {
		t.Fatalf("segue caused %d task failures (rollback)", got)
	}
	// All lambdas must be decommissioned and released.
	for _, l := range f.lambdas(t) {
		if l.State == cloud.LambdaRunning || l.State == cloud.LambdaStarting {
			t.Fatalf("lambda %s still running after segue", l.ID)
		}
		if l.State == cloud.LambdaExpired {
			t.Fatalf("lambda %s hit the lifetime cap despite segue", l.ID)
		}
	}
	// Post-segue executors are VM-based.
	vmLive, laLive := f.backend.fleet.VMLive, f.backend.fleet.LambdaLive
	if laLive != 0 || vmLive == 0 {
		t.Fatalf("post-segue mix = %d VM / %d Lambda", vmLive, laLive)
	}
}

func TestNoSegueWhenSLOWithinVMStartup(t *testing.T) {
	f := newFixture(t, Config{}, 0, 0, nil)
	cfg := DefaultConfig(nil, 0)
	cfg.Segue = true
	mustCluster(t, f, cfg, 4, 30*time.Second, nil) // SLO < ~110s boot
	if _, err := f.cluster.RunJob(workJob(f.ctx, 4_000, 4, 100), "short"); err != nil {
		t.Fatal(err)
	}
	if f.count(eventlog.VMRequest) != 0 {
		t.Fatal("segue VM requested for a short-SLO job")
	}
}

func TestTTLSafetyDrainAvoidsExpiry(t *testing.T) {
	f := newFixture(t, Config{}, 0, 0, nil)
	mustCluster(t, f, DefaultConfig(nil, 0), 4, 0, nil)
	// Waves of ~47 s tasks for 16 minutes: the executors cross the 60 s
	// margin before the 15-minute lifetime cap, and every task assigned
	// before the margin finishes before the cap.
	for f.clock.Since(simclock.Epoch) < 16*time.Minute {
		ctx := rdd.NewContext()
		if _, err := f.cluster.RunJob(workJob(ctx, 8_000, 4, 1_000_000), "long"); err != nil {
			t.Fatal(err)
		}
	}
	drained := f.count(eventlog.ExecutorDrain)
	if drained == 0 {
		t.Fatal("TTL safety margin never drained a lambda")
	}
	for _, l := range f.lambdas(t) {
		if l.State == cloud.LambdaExpired {
			t.Fatalf("lambda %s expired despite safety drain", l.ID)
		}
	}
}

func TestLambdaExpiryCausesRecoveryButJobCompletes(t *testing.T) {
	f := newFixture(t, Config{}, 0, 0, nil)
	mustCluster(t, f, DefaultConfig(nil, 0), 2, 0, nil)
	// Four ~10-minute tasks on 2 executors: the second wave starts well
	// before the 60 s safety margin and crosses the 15-minute lifetime,
	// the executors expire mid-task, and recovery reruns the failed tasks
	// on replacement Lambdas.
	ctx := rdd.NewContext()
	src := ctx.Source("big", 4, func(p int) []rdd.Row {
		out := make([]rdd.Row, 100)
		for i := range out {
			out[i] = i
		}
		return out
	}, 3e8, 8) // 100 rows x 3e8 units = 3e10 units ≈ 10 min per task
	job, err := f.cluster.RunJob(src, "expiry")
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Rows()) != 400 {
		t.Fatalf("rows = %d", len(job.Rows()))
	}
	expired := 0
	for _, l := range f.lambdas(t) {
		if l.State == cloud.LambdaExpired {
			expired++
		}
	}
	if expired == 0 {
		t.Fatal("no lambda expired; test premise broken")
	}
	if got := f.count(eventlog.TaskFailed); got == 0 {
		t.Fatal("expiry should have failed running tasks")
	}
}

func TestShutdownReleasesLambdas(t *testing.T) {
	f := newFixture(t, DefaultConfig(nil, 0), 4, 0, nil)
	if _, err := f.cluster.RunJob(workJob(f.ctx, 4_000, 4, 100), "x"); err != nil {
		t.Fatal(err)
	}
	f.backend.Shutdown()
	for _, l := range f.lambdas(t) {
		if l.State == cloud.LambdaRunning {
			t.Fatalf("lambda %s running after Shutdown", l.ID)
		}
	}
	la := f.backend.fleet.LambdaLive
	if la != 0 {
		t.Fatalf("lambda count = %d after Shutdown", la)
	}
}

func TestHDFSShuffleSharedAcrossSubstrates(t *testing.T) {
	// Map tasks on lambdas write HDFS blocks that reduce tasks on VMs can
	// read (and vice versa): the state-transfer facility.
	f := newFixture(t, Config{}, 0, 0, nil)
	worker := f.provider.ProvisionReadyVM(cloud.M44XLarge)
	cfg := DefaultConfig([]*cloud.VM{worker}, 2)
	mustCluster(t, f, cfg, 8, 0, nil)
	job, err := f.cluster.RunJob(workJob(f.ctx, 40_000, 8, 300), "shared")
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, job, 40_000)
	if f.fs.FileCount() == 0 {
		t.Fatal("no shuffle files written to HDFS")
	}
}

func TestNegativeFreeCoresMeansAllCores(t *testing.T) {
	f := newFixture(t, Config{}, 0, 0, nil)
	worker := f.provider.ProvisionReadyVM(cloud.M44XLarge)
	cfg := DefaultConfig([]*cloud.VM{worker}, -1)
	mustCluster(t, f, cfg, 16, 0, nil)
	job, err := f.cluster.RunJob(workJob(f.ctx, 16_000, 16, 200), "all")
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, job, 16_000)
	vms, las := f.backend.fleet.VMLive, f.backend.fleet.LambdaLive
	if vms != 16 || las != 0 {
		t.Fatalf("mix = %d/%d, want 16 VM / 0 Lambda", vms, las)
	}
}

func TestHybridWorkDistributionTracked(t *testing.T) {
	f := newFixture(t, Config{}, 0, 0, nil)
	worker := f.provider.ProvisionReadyVM(cloud.M44XLarge)
	cfg := DefaultConfig([]*cloud.VM{worker}, 4)
	mustCluster(t, f, cfg, 12, 0, nil)
	if _, err := f.cluster.RunJob(workJob(f.ctx, 60_000, 12, 20_000), "dist"); err != nil {
		t.Fatal(err)
	}
	dist := f.cluster.WorkDistribution()
	vm, la := dist.VM, dist.Lambda
	if vm.Executors != 4 || la.Executors != 8 {
		t.Fatalf("executors = %+v / %+v", vm, la)
	}
	if vm.Tasks == 0 || la.Tasks == 0 || vm.Busy <= 0 || la.Busy <= 0 {
		t.Fatalf("work not split: vm=%+v lambda=%+v", vm, la)
	}
}

func TestLambdaCPUFactorApplied(t *testing.T) {
	f := newFixture(t, Config{}, 0, 0, nil)
	mustCluster(t, f, DefaultConfig(nil, 0), 2, 0, nil)
	if _, err := f.cluster.RunJob(workJob(f.ctx, 2_000, 2, 100), "derated"); err != nil {
		t.Fatal(err)
	}
	// A 1536 MB Lambda is one full vCPU, derated by the 0.85 factor.
	for _, e := range f.cluster.AllExecutors() {
		if e.CPUShare != 0.85 {
			t.Fatalf("CPUShare = %v, want 0.85", e.CPUShare)
		}
	}
}
