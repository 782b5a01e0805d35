package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"splitserve/internal/cloud"
	"splitserve/internal/eventlog"
	"splitserve/internal/netsim"
	"splitserve/internal/simclock"
	"splitserve/internal/spark/engine"
	"splitserve/internal/spark/rdd"
	"splitserve/internal/spark/shuffle"
	"splitserve/internal/storage"
	"splitserve/internal/workloads"
	"splitserve/internal/workloads/shufflereuse"
)

// engineProbe wraps a workload and records a weak pointer to every
// engine it runs on, so a test can ask which engines outlive their jobs.
type engineProbe struct {
	workloads.Workload
	set *probeSet
}

type probeSet struct {
	mu      sync.Mutex
	engines []weak.Pointer[engine.Cluster]
}

func (p engineProbe) Run(c *engine.Cluster) (*workloads.Report, error) {
	p.set.mu.Lock()
	p.set.engines = append(p.set.engines, weak.Make(c))
	p.set.mu.Unlock()
	return p.Workload.Run(c)
}

// live collects garbage and counts the probed engines still reachable.
func (s *probeSet) live() int {
	runtime.GC()
	n := 0
	for _, w := range s.engines {
		if w.Value() != nil {
			n++
		}
	}
	return n
}

// invokes counts the run's lambda_invoke events.
func invokes(s *Scheduler) int {
	n := 0
	for _, ev := range s.bus.Events() {
		if ev.Type == eventlog.LambdaInvoke {
			n++
		}
	}
	return n
}

// TestLeakFinishedJobEngines: once a job finishes, nothing the scheduler
// keeps for its report — cloud records, network pools, the warm pool, the
// event log — may reach the job's engine. Bridged jobs are the case that
// matters: their Lambdas' expiry callbacks and egress pools once led back
// to the engine, while the provider kept every Lambda for billing.
func TestLeakFinishedJobEngines(t *testing.T) {
	arrivals := make([]time.Duration, 12)
	for i := range arrivals {
		arrivals[i] = time.Duration(i) * 2 * time.Second
	}
	cases := []struct {
		name    string
		cfg     Config
		lambdas bool
	}{
		{"bridge", Config{
			Jobs: testJobs(t, arrivals, 4, 4, 2), PoolCores: 4,
			Strategy: StrategyBridge,
		}, true},
		{"bridge-warmpool", Config{
			Jobs: warmJobs(t, 12), PoolCores: 4,
			Strategy: StrategyBridge, WarmPool: 4, TmpCache: true,
		}, true},
		{"queue", Config{
			Jobs: testJobs(t, arrivals, 4, 4, 2), PoolCores: 4,
			Strategy: StrategyQueue,
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := &probeSet{}
			cfg := tc.cfg
			cfg.Policy, cfg.SLOFactor, cfg.Seed = FairShare(), 3, 5
			for i := range cfg.Jobs {
				cfg.Jobs[i].Workload = engineProbe{cfg.Jobs[i].Workload, set}
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			for s.Clock().Step() {
			}
			if rep.Completed != len(cfg.Jobs) || len(set.engines) != len(cfg.Jobs) {
				t.Fatalf("%d of %d jobs completed on %d engines", rep.Completed, len(cfg.Jobs), len(set.engines))
			}
			if got := invokes(s) > 0; got != tc.lambdas {
				t.Fatalf("Lambdas launched: %v, want %v", got, tc.lambdas)
			}
			if n := set.live(); n != 0 {
				t.Errorf("%d of %d finished jobs' engines are still reachable", n, len(set.engines))
			}
			runtime.KeepAlive(s)
		})
	}
}

// lambdaProbe wraps a workload and, when it returns, records weak
// pointers to its report and to every Lambda its job's fleet launched
// and their egress pools, so a test can ask which outlive the job.
type lambdaProbe struct {
	workloads.Workload
	set *lambdaSet
}

type lambdaSet struct {
	s           *Scheduler
	lambdas     []weak.Pointer[cloud.Lambda]
	pools       []weak.Pointer[netsim.Pool]
	reports     []weak.Pointer[workloads.Report]
	provisioned int
}

func (p lambdaProbe) Run(c *engine.Cluster) (*workloads.Report, error) {
	rep, err := p.Workload.Run(c)
	set := p.set
	for _, j := range set.s.jobs {
		if j.cluster != c {
			continue
		}
		// The backend shuts down after the workload returns, so its fleet
		// launches nothing more.
		for _, l := range j.backend.fleet.Lambdas() {
			set.lambdas = append(set.lambdas, weak.Make(l))
			set.pools = append(set.pools, weak.Make(l.Egress))
			if l.Provisioned {
				set.provisioned++
			}
		}
	}
	if rep != nil {
		set.reports = append(set.reports, weak.Make(rep))
	}
	return rep, err
}

// liveWeak counts the weak pointers whose objects are still reachable.
func liveWeak[T any](ws []weak.Pointer[T]) int {
	n := 0
	for _, w := range ws {
		if w.Value() != nil {
			n++
		}
	}
	return n
}

// TestLeakEndedLambdas: once Run returns, no Lambda record a finished
// job's fleet launched, no egress pool of one and no workload report may
// stay reachable while the scheduler and its report are kept: the
// provider keeps no invocation ledger, and a settled job keeps only the
// scalars of its report row.
func TestLeakEndedLambdas(t *testing.T) {
	arrivals := make([]time.Duration, 12)
	for i := range arrivals {
		arrivals[i] = time.Duration(i) * 2 * time.Second
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"bridge", Config{Jobs: testJobs(t, arrivals, 4, 4, 2), PoolCores: 4}},
		{"warmpool-tmpcache", Config{Jobs: warmJobs(t, 12), PoolCores: 4, WarmPool: 4, TmpCache: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := &lambdaSet{}
			cfg := tc.cfg
			cfg.Policy, cfg.Strategy, cfg.SLOFactor, cfg.Seed = FairShare(), StrategyBridge, 3, 5
			for i := range cfg.Jobs {
				cfg.Jobs[i].Workload = lambdaProbe{cfg.Jobs[i].Workload, set}
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			set.s = s
			rep, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Completed != len(cfg.Jobs) || len(set.reports) != len(cfg.Jobs) {
				t.Fatalf("%d of %d jobs completed, %d reports", rep.Completed, len(cfg.Jobs), len(set.reports))
			}
			if n := invokes(s); len(set.lambdas) != n || n == 0 {
				t.Fatalf("the fleets launched %d Lambdas, the log has %d lambda_invoke events", len(set.lambdas), n)
			}
			if cfg.WarmPool > 0 && set.provisioned == 0 {
				t.Fatal("no Lambda ran on a warm-pool environment; the warm path is untested")
			}
			runtime.GC()
			if n := liveWeak(set.lambdas); n != 0 {
				t.Errorf("%d of %d Lambda records are still reachable", n, len(set.lambdas))
			}
			if n := liveWeak(set.pools); n != 0 {
				t.Errorf("%d of %d Lambda egress pools are still reachable", n, len(set.pools))
			}
			if n := liveWeak(set.reports); n != 0 {
				t.Errorf("%d of %d workload reports are still reachable", n, len(set.reports))
			}
			runtime.KeepAlive(s)
			runtime.KeepAlive(rep)
		})
	}
}

// heldWorkload wraps a job's workload in its own allocation, so a test
// can hold a weak pointer to exactly what the job's spec carries.
type heldWorkload struct{ workloads.Workload }

// TestLeakSettledJobWorkloads: a settled job keeps its report fields, not
// its workload. Neither the scheduler's config nor the job's spec may
// reach the workload once the job completed, failed or was shed: a
// failed job is one whose workload returned an error, or one still
// running or never admitted when the day is cut off.
func TestLeakSettledJobWorkloads(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(t *testing.T) Config
		want func(rep *Report) bool
	}{
		{"completed", func(t *testing.T) Config {
			return Config{Jobs: testJobs(t, []time.Duration{0, time.Second, 2 * time.Second, 3 * time.Second}, 4, 4, 2),
				PoolCores: 4, Strategy: StrategyBridge}
		}, func(rep *Report) bool { return rep.Completed == rep.Jobs }},
		{"shed", func(t *testing.T) Config {
			return Config{Jobs: testJobs(t, []time.Duration{0, time.Second, 2 * time.Second}, 4, 8, 4),
				PoolCores: 4, Strategy: StrategyQueue, SLOFactor: 1.2, Admission: AdmissionDeadline}
		}, func(rep *Report) bool { return rep.Shed > 0 }},
		{"failed", func(t *testing.T) Config {
			jobs := testJobs(t, []time.Duration{0, time.Second}, 4, 4, 2)
			jobs[1].Workload = failingWorkload{jobs[1].Workload}
			return Config{Jobs: jobs, PoolCores: 4, Strategy: StrategyBridge}
		}, func(rep *Report) bool { return rep.Failed == 1 }},
		{"cut-off", func(t *testing.T) Config {
			return Config{Jobs: testJobs(t, []time.Duration{0, 0, 0}, 4, 4, 2),
				PoolCores: 4, Policy: FIFO(), Strategy: StrategyQueue, MaxSimTime: time.Second}
		}, func(rep *Report) bool { return rep.Failed == rep.Jobs && rep.JobReports[2].StartUS == 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t)
			if cfg.Policy == nil {
				cfg.Policy = FairShare()
			}
			cfg.Seed = 5
			held := make([]weak.Pointer[heldWorkload], len(cfg.Jobs))
			for i := range cfg.Jobs {
				w := &heldWorkload{cfg.Jobs[i].Workload}
				held[i] = weak.Make(w)
				cfg.Jobs[i].Workload = w
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg = Config{} // the test keeps no spec of its own
			rep, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !tc.want(rep) {
				t.Fatalf("the day did not reach the %s path: %d jobs, %d completed, %d failed, %d shed",
					tc.name, rep.Jobs, rep.Completed, rep.Failed, rep.Shed)
			}
			runtime.GC()
			if n := liveWeak(held); n != 0 {
				t.Errorf("%d of %d settled jobs' workloads are still reachable", n, len(held))
			}
			runtime.KeepAlive(s)
			runtime.KeepAlive(rep)
		})
	}
}

// failingWorkload runs its workload, then reports an error.
type failingWorkload struct{ workloads.Workload }

func (w failingWorkload) Run(c *engine.Cluster) (*workloads.Report, error) {
	if _, err := w.Workload.Run(c); err != nil {
		return nil, err
	}
	return nil, errors.New("workload failed on purpose")
}

// rowProbe is a one-shuffle workload whose rows are pointers, each
// recorded as a weak pointer when its map task makes it. The shuffle
// does not combine, so every row is also a map-output row, stored in the
// job's shuffle files.
type rowProbe struct {
	set   *rowSet
	parts int
	rows  int // per partition
}

type probeRow struct{ key, val int }

type rowSet struct {
	mu   sync.Mutex
	rows []weak.Pointer[probeRow]
}

func (p rowProbe) Name() string            { return "rowprobe" }
func (p rowProbe) DefaultParallelism() int { return p.parts }
func (p rowProbe) SLO() time.Duration      { return time.Minute }

func (p rowProbe) Run(c *engine.Cluster) (*workloads.Report, error) {
	return workloads.Timed(c, p.Name(), func() (string, int, error) {
		ctx := rdd.NewContext()
		src := ctx.Source("rows", p.parts, func(part int) []rdd.Row {
			out := make([]rdd.Row, p.rows)
			p.set.mu.Lock()
			for i := range out {
				r := &probeRow{key: part*p.rows + i, val: 1}
				p.set.rows = append(p.set.rows, weak.Make(r))
				out[i] = r
			}
			p.set.mu.Unlock()
			return out
		}, 2e5, 4<<10)
		counts := src.Exchange("count", p.parts,
			func(r rdd.Row) rdd.Key { return r.(*probeRow).key },
			func(_ int, groups []rdd.Group) []rdd.Row {
				n := 0
				for _, g := range groups {
					for _, r := range g.Rows {
						n += r.(*probeRow).val
					}
				}
				return []rdd.Row{n}
			}, 2e5, 8)
		job, err := c.RunJob(counts, p.Name())
		if err != nil {
			return "", 0, err
		}
		n := 0
		for _, r := range job.Rows() {
			n += r.(int)
		}
		if want := p.parts * p.rows; n != want {
			return "", 0, fmt.Errorf("rowprobe counted %d rows, want %d", n, want)
		}
		return fmt.Sprintf("%d rows", n), 1, nil
	})
}

// live collects garbage and counts the probed rows still reachable.
func (s *rowSet) live() int {
	runtime.GC()
	n := 0
	for _, w := range s.rows {
		if w.Value() != nil {
			n++
		}
	}
	return n
}

// TestLeakFinishedJobShuffleRows: a finished job's map-output rows must
// not stay reachable through the namenode, which drops the job's shuffle
// directory when the job settles. With the /tmp cache tier, a warm
// environment's cache keeps its own copies until the environment is
// recycled (the cache is capped per environment), so the test recycles
// every environment first; nothing else may hold a row.
func TestLeakFinishedJobShuffleRows(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{PoolCores: 4, Strategy: StrategyBridge}},
		{"warmpool-tmpcache", Config{PoolCores: 4, Strategy: StrategyBridge, WarmPool: 4, TmpCache: true}},
	}
	base, err := Baseline(rowProbe{set: &rowSet{}, parts: 4, rows: 50}, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := &rowSet{}
			cfg := tc.cfg
			cfg.Policy, cfg.SLOFactor, cfg.Seed = FairShare(), 3, 5
			for i := 0; i < 8; i++ {
				cfg.Jobs = append(cfg.Jobs, JobSpec{
					Workload: rowProbe{set: set, parts: 4, rows: 50},
					Cores:    4, Arrival: time.Duration(i) * time.Second, Baseline: base,
				})
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			for s.Clock().Step() {
			}
			if rep.Completed != len(cfg.Jobs) {
				t.Fatalf("%d of %d jobs completed", rep.Completed, len(cfg.Jobs))
			}
			if want := len(cfg.Jobs) * 4 * 50; len(set.rows) < want {
				t.Fatalf("probed %d rows, want at least %d", len(set.rows), want)
			}
			if s.warm != nil {
				if s.tmpCache.Tracked() == 0 {
					t.Fatal("no warm environment cached a block; the /tmp tier is untested")
				}
				for _, env := range s.warm.IdleBreakdown(s.Clock().Now()) {
					s.tmpCache.Recycle(env.ID)
				}
			}
			if n := set.live(); n != 0 {
				t.Errorf("%d of %d finished jobs' map-output rows are still reachable", n, len(set.rows))
			}
			runtime.KeepAlive(s)
		})
	}
}

// tinyShuffleJob is a small real shuffle: 4 map tasks, each writing 4
// buckets, read twice.
func tinyShuffleJob() *shufflereuse.Workload {
	return shufflereuse.New(shufflereuse.Config{
		Partitions: 4, RowsPerPartition: 50, RowBytes: 16 << 10, Keys: 200, Reuse: 2,
	})
}

// errWriteLost is the injected failure of failWrite.
var errWriteLost = errors.New("injected: shuffle write acknowledgement lost")

// failWrite fails the first shuffle write under dir the moment it is
// issued, while the write itself goes on to land in the backing store:
// the job aborts mid-shuffle with its writes in flight.
type failWrite struct {
	storage.Store
	clock  *simclock.Clock
	dir    string
	failed bool
}

func (f *failWrite) PutAll(blocks []storage.Block, cl storage.Client, done func(error)) {
	if f.failed || len(blocks) == 0 || !strings.HasPrefix(blocks[0].ID, f.dir) {
		f.Store.PutAll(blocks, cl, done)
		return
	}
	f.failed = true
	f.Store.PutAll(blocks, cl, func(error) {})
	f.clock.After(0, func() { done(errWriteLost) })
}

// TestFinishedJobsLeaveNoShuffleFiles: once a day has run, the namenode
// holds no file, whatever the job count, including the files of a job
// that failed while its map tasks' writes were still in flight.
func TestFinishedJobsLeaveNoShuffleFiles(t *testing.T) {
	base, err := Baseline(tinyShuffleJob(), 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{10, 100} {
		for _, failing := range []bool{false, true} {
			name := fmt.Sprintf("jobs=%d", jobs)
			if failing {
				name += "/one-fails"
			}
			t.Run(name, func(t *testing.T) {
				cfg := Config{
					PoolCores: 4, Policy: FIFO(), Strategy: StrategyBridge,
					WarmPool: 4, TmpCache: true, Seed: 5,
				}
				for i := 0; i < jobs; i++ {
					cfg.Jobs = append(cfg.Jobs, JobSpec{
						Workload: tinyShuffleJob(), Cores: 4,
						Arrival: time.Duration(i) * 200 * time.Millisecond, Baseline: base,
					})
				}
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var fail *failWrite
				if failing {
					victim := s.jobs[jobs/2]
					fail = &failWrite{Store: s.store, clock: s.clock, dir: shuffle.AppDir(victim.appID)}
					s.store = fail
				}
				rep, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				writes := 0
				for _, ev := range s.bus.Events() {
					if ev.Type == eventlog.HDFSWrite {
						writes++
					}
				}
				if writes < jobs {
					t.Fatalf("%d shuffle writes for %d jobs; the day shuffles too little", writes, jobs)
				}
				if n := s.fs.FileCount(); n != 0 {
					t.Errorf("%d shuffle files left after Run", n)
				}
				for s.Clock().Step() {
				}
				if n := s.fs.FileCount(); n != 0 {
					t.Errorf("%d shuffle files left once every write in flight landed", n)
				}
				wantFailed := 0
				if failing {
					wantFailed = 1
					if !fail.failed {
						t.Fatal("no shuffle write of the victim job was failed")
					}
				}
				if rep.Failed != wantFailed || rep.Completed != jobs-wantFailed {
					t.Fatalf("%d completed, %d failed; want %d, %d", rep.Completed, rep.Failed, jobs-wantFailed, wantFailed)
				}
			})
		}
	}
}
