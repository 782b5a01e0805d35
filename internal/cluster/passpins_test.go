package cluster_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"splitserve/internal/cluster"
	"splitserve/internal/eventlog"
	"splitserve/internal/shard"
	"splitserve/internal/simrand"
	"splitserve/internal/workloads/sparkpi"
)

// This file pins the scheduling pass — entitlement, reclaim, admission,
// the two grant phases and autoscale procurement — across the policy,
// strategy and admission grid. Each day is a small seeded stream with
// more jobs than pool cores, arrivals out of ID order (so a later-arriving
// lower-ID job displaces entitlement from a running one) and some demands
// above the pool's capacity. Its report JSON plus event-log JSONL must
// hash to the recorded digest, and the events the day exists to exercise
// must fire.

// passPi is a sparkpi whose tasks each cost about taskSecs of virtual time,
// with a few real darts per task so the day runs in milliseconds.
func passPi(partitions int, taskSecs float64) *sparkpi.Workload {
	return sparkpi.New(sparkpi.Config{
		Darts:               int64(float64(partitions) * taskSecs * 5e7 / 0.4),
		SampledDartsPerTask: 20_000,
		Partitions:          partitions,
		CostPerDart:         0.4,
		Seed:                3,
	})
}

// passBaselines caches cluster.Baseline per job shape across the days.
var passBaselines = map[[2]int]time.Duration{}

// passSpecs draws n jobs: demands from {1, 2, 4, 6, 12} (12 exceeds the
// pools below), one to three tasks per core of about a second each, and
// arrivals uniform over window, unsorted by ID.
func passSpecs(t *testing.T, n int, window time.Duration, seed uint64, tenants int) []cluster.JobSpec {
	t.Helper()
	rng := simrand.New(seed * 7919)
	demands := []int{1, 2, 4, 6, 12}
	specs := make([]cluster.JobSpec, n)
	for i := range specs {
		cores := demands[rng.Intn(len(demands))]
		waves := 1 + rng.Intn(3)
		key := [2]int{cores, waves}
		base, ok := passBaselines[key]
		if !ok {
			var err error
			if base, err = cluster.Baseline(passPi(cores*waves, 1), cores, 9); err != nil {
				t.Fatalf("Baseline: %v", err)
			}
			passBaselines[key] = base
		}
		specs[i] = cluster.JobSpec{
			Workload: passPi(cores*waves, 1),
			Cores:    cores,
			Arrival:  time.Duration(rng.Int63n(int64(window))),
			Baseline: base,
		}
		if tenants > 0 {
			specs[i].Tenant = fmt.Sprintf("t%02d", rng.Intn(tenants))
		}
	}
	return specs
}

// passDay is one pinned day and the events it must produce.
type passDay struct {
	name      string
	policy    cluster.Policy
	strategy  cluster.Strategy
	admission cluster.Admission
	scaleDown time.Duration
	slo       float64
	shards    int
	seed      uint64
	// reclaim, delay, shed and steal name the events the day must emit:
	// a VM executor_drain (only reclaim drains VM executors),
	// cluster_job_delay, cluster_job_shed and shard_steal. A day with
	// scaleDown set must also release an idle procured VM.
	reclaim, delay, shed, steal bool
	sha                         string
}

var passDays = []passDay{
	{name: "fifo-bridge-greedy", policy: cluster.FIFO(), strategy: cluster.StrategyBridge, admission: cluster.AdmissionGreedy, seed: 1, reclaim: true,
		sha: "9656c36a9a54af89986f67f26e9fd8a4c04053073f0f7f46d8699535b2b35a0d"},
	{name: "fifo-bridge-deadline", policy: cluster.FIFO(), strategy: cluster.StrategyBridge, admission: cluster.AdmissionDeadline, seed: 2, reclaim: true,
		sha: "0bd5e26eb2358a876cc8b26e41bc7e220516c3fc450ee594df7f2c7de52d4911"},
	{name: "fifo-bridge-deadline-shed", policy: cluster.FIFO(), strategy: cluster.StrategyBridge, admission: cluster.AdmissionDeadline, slo: 1.05, seed: 3, shed: true,
		sha: "128ff7a505a445ac8bdb227817765d3965fb0e9e137a779394cc5a16cb69f5b9"},
	{name: "fifo-queue-greedy", policy: cluster.FIFO(), strategy: cluster.StrategyQueue, admission: cluster.AdmissionGreedy, seed: 4, reclaim: true,
		sha: "23cbd935baefd78f8253d9b67546afa2d12500817ddacf6fae220cd8464eb9a4"},
	{name: "fifo-queue-deadline", policy: cluster.FIFO(), strategy: cluster.StrategyQueue, admission: cluster.AdmissionDeadline, seed: 5, delay: true, shed: true,
		sha: "5a7e9ab553618436e4aa9d28f5513bc66ddb65d0753751244a96a9dbe5d0026c"},
	{name: "fifo-autoscale-greedy", policy: cluster.FIFO(), strategy: cluster.StrategyAutoscale, admission: cluster.AdmissionGreedy, scaleDown: 5 * time.Second, seed: 6, reclaim: true,
		sha: "299e5c7969c61af3241bc0d49f3eae86a0a4fa52e47b0079f43bb4be87357c63"},
	{name: "fifo-autoscale-deadline", policy: cluster.FIFO(), strategy: cluster.StrategyAutoscale, admission: cluster.AdmissionDeadline, scaleDown: 5 * time.Second, seed: 7, delay: true, shed: true,
		sha: "8dfcbdc41b02230ef68faf42a4aedb6796355c4cda9632fb733b9c8c895f5384"},
	{name: "fair-bridge-greedy", policy: cluster.FairShare(), strategy: cluster.StrategyBridge, admission: cluster.AdmissionGreedy, seed: 8, reclaim: true,
		sha: "f9fd7c6d17267eb4bbb9facba237484506fe99baa37cc24e3f713ddfe68f9458"},
	{name: "fair-bridge-greedy-b", policy: cluster.FairShare(), strategy: cluster.StrategyBridge, admission: cluster.AdmissionGreedy, seed: 9, reclaim: true,
		sha: "3aa34d224fd908b9fb9eede13d2e1e75113823d0ea409c352814dad50c330507"},
	{name: "fair-bridge-deadline", policy: cluster.FairShare(), strategy: cluster.StrategyBridge, admission: cluster.AdmissionDeadline, seed: 10, reclaim: true,
		sha: "89c4f31f9510af38edfbff99151dbaff0fc59dc78b3d074265561a774443c956"},
	{name: "fair-queue-greedy", policy: cluster.FairShare(), strategy: cluster.StrategyQueue, admission: cluster.AdmissionGreedy, seed: 11, reclaim: true,
		sha: "c3c4125354262405f3e15e3e1b4e44e6b1592fd238dc6bcaf2ef1a70d556bd87"},
	{name: "fair-queue-deadline", policy: cluster.FairShare(), strategy: cluster.StrategyQueue, admission: cluster.AdmissionDeadline, seed: 12, reclaim: true, delay: true, shed: true,
		sha: "64beec334ed610dbbdfbeadfe10aa4598cc44ac7817fa13680f54314db449343"},
	{name: "fair-autoscale-greedy", policy: cluster.FairShare(), strategy: cluster.StrategyAutoscale, admission: cluster.AdmissionGreedy, scaleDown: 5 * time.Second, seed: 13, reclaim: true,
		sha: "033bcfefbf3637864a8b7c63408ea42b41875c9bb747db03ba336e1a05d1220d"},
	{name: "fair-autoscale-greedy-keep", policy: cluster.FairShare(), strategy: cluster.StrategyAutoscale, admission: cluster.AdmissionGreedy, seed: 14, reclaim: true,
		sha: "a786ab95f29c005ff523f7feaa75d18f11a7d183472bd1418a0cc61c4ef2fa25"},
	{name: "fair-autoscale-deadline", policy: cluster.FairShare(), strategy: cluster.StrategyAutoscale, admission: cluster.AdmissionDeadline, scaleDown: 5 * time.Second, seed: 15, delay: true, shed: true,
		sha: "23f6b94916fedafa78ee81ea083cf2a0784901ae5a63972de9a33220ebbc50e7"},
	{name: "fair-queue-sharded", policy: cluster.FairShare(), strategy: cluster.StrategyQueue, admission: cluster.AdmissionGreedy, shards: 3, seed: 16, steal: true,
		sha: "d53f5a57989342d6feee9776e28d3833e8cbb56eac026fbe20ccc0c1c38f87f2"},
}

// TestSchedulePassPins runs every pass day and checks its digest and its
// target events.
func TestSchedulePassPins(t *testing.T) {
	for _, d := range passDays {
		t.Run(d.name, func(t *testing.T) {
			report, events, log := runPassDay(t, d)
			h := sha256.New()
			h.Write(report)
			h.Write(log)
			if got := hex.EncodeToString(h.Sum(nil)); got != d.sha {
				t.Errorf("report+eventlog sha256 = %s, want %s", got, d.sha)
			}
			var reclaims, delays, sheds, steals, releases int
			for _, e := range events {
				switch {
				case e.Type == eventlog.ExecutorDrain && e.Kind == "vm":
					reclaims++
				case e.Type == eventlog.ClusterDelay:
					delays++
				case e.Type == eventlog.ClusterShed:
					sheds++
				case e.Type == eventlog.ShardSteal:
					steals++
				case e.Type == eventlog.VMReleaseIdle:
					releases++
				}
			}
			t.Logf("%d reclaim drains, %d delays, %d sheds, %d steals, %d idle releases", reclaims, delays, sheds, steals, releases)
			for _, c := range []struct {
				want bool
				n    int
				what string
			}{
				{d.reclaim, reclaims, "reclaim executor_drain"},
				{d.delay, delays, "cluster_job_delay"},
				{d.shed, sheds, "cluster_job_shed"},
				{d.steal, steals, "shard_steal"},
				{d.scaleDown > 0, releases, "vm_release_idle"},
			} {
				if c.want && c.n == 0 {
					t.Errorf("no %s events", c.what)
				}
			}
		})
	}
}

// runPassDay plays one day and returns its report JSON, its events and
// their JSONL.
func runPassDay(t *testing.T, d passDay) (report []byte, events []eventlog.Event, log []byte) {
	t.Helper()
	tenants := 0
	if d.shards > 0 {
		tenants = 6
	}
	cfg := cluster.Config{
		Jobs:           passSpecs(t, 28, 20*time.Second, d.seed, tenants),
		PoolCores:      8,
		Policy:         d.policy,
		Strategy:       d.strategy,
		Admission:      d.admission,
		SLOFactor:      d.slo,
		ScaleDownIdle:  d.scaleDown,
		VMBootOverride: 3 * time.Second,
		Seed:           d.seed,
	}
	var err error
	if d.shards > 0 {
		cfg.PoolCores = 12
		m, err := shard.New(shard.Config{Shards: d.shards, Cluster: cfg})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if report, err = rep.JSON(); err != nil {
			t.Fatal(err)
		}
		events = m.Events()
		var buf bytes.Buffer
		if err := eventlog.WriteJSONL(&buf, events); err != nil {
			t.Fatal(err)
		}
		return report, events, buf.Bytes()
	}
	s, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report, err = rep.JSON(); err != nil {
		t.Fatal(err)
	}
	if log, err = s.Events().JSONL(); err != nil {
		t.Fatal(err)
	}
	return report, s.Events().Events(), log
}
