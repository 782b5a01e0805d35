package autoscale

import (
	"math"
	"testing"
	"time"

	"splitserve/internal/simrand"
)

func TestSimulateDayBasics(t *testing.T) {
	res := SimulateDay(DefaultDayConfig(StrategyQueue, 0))
	if res.Jobs == 0 {
		t.Fatal("no jobs arrived all day")
	}
	if res.VMBaseUSD <= 0 || res.TotalUSD < res.VMBaseUSD {
		t.Fatalf("degenerate costs: %+v", res)
	}
	if res.MeanStretch < 1 {
		t.Fatalf("mean stretch %v < 1", res.MeanStretch)
	}
	if res.String() == "" {
		t.Fatal("empty String")
	}
}

func TestBridgingEliminatesMostViolations(t *testing.T) {
	queue := SimulateDay(DefaultDayConfig(StrategyQueue, 0))
	bridge := SimulateDay(DefaultDayConfig(StrategyBridge, 0))
	if queue.SLOViolations == 0 {
		t.Fatal("queueing strategy shows no violations; demand too tame")
	}
	if bridge.SLOViolations != 0 {
		t.Fatalf("lambda bridging left %d violations (hybrid slowdown < SLO factor)", bridge.SLOViolations)
	}
	if bridge.LambdaUSD <= 0 {
		t.Fatal("bridging billed no lambda time")
	}
}

func TestAutoscaleBetweenQueueAndBridge(t *testing.T) {
	queue := SimulateDay(DefaultDayConfig(StrategyQueue, 0))
	auto := SimulateDay(DefaultDayConfig(StrategyAutoscale, 0))
	bridge := SimulateDay(DefaultDayConfig(StrategyBridge, 0))
	if !(auto.MeanStretch < queue.MeanStretch) {
		t.Fatalf("autoscale stretch %.2f not below queue %.2f", auto.MeanStretch, queue.MeanStretch)
	}
	if !(bridge.MeanStretch < auto.MeanStretch) {
		t.Fatalf("bridge stretch %.2f not below autoscale %.2f", bridge.MeanStretch, auto.MeanStretch)
	}
}

func TestBridgingEconomics(t *testing.T) {
	// The paper's economic argument (Section 4.1): instead of "always
	// provisioning for the worst-case needs", provision diurnally and
	// lambda-bridge the residual risk.
	worst := DefaultDayConfig(StrategyQueue, 2)
	worst.StaticWorstCase = true
	worstCase := SimulateDay(worst)
	moderate := SimulateDay(DefaultDayConfig(StrategyBridge, 1))
	if moderate.TotalUSD >= worstCase.TotalUSD {
		t.Fatalf("diurnal+bridge $%.2f not cheaper than worst-case static $%.2f",
			moderate.TotalUSD, worstCase.TotalUSD)
	}
	if moderate.SLOViolations > worstCase.SLOViolations {
		t.Fatalf("cheaper policy has more violations: %d vs %d",
			moderate.SLOViolations, worstCase.SLOViolations)
	}
	// Against a diurnal m+2σ policy the trade is violations-vs-dollars:
	// bridging costs somewhat more but eliminates the SLO misses.
	conservative := SimulateDay(DefaultDayConfig(StrategyQueue, 2))
	if conservative.SLOViolations == 0 {
		t.Fatal("diurnal m+2σ policy shows no violations; Figure 2's t1 premise missing")
	}
	if moderate.SLOViolations != 0 {
		t.Fatalf("bridging left %d violations", moderate.SLOViolations)
	}
	// Footnote 8's limit: max-aggressive bridging pays more in Lambdas
	// than the moderate policy does.
	extreme := SimulateDay(DefaultDayConfig(StrategyBridge, 0))
	if extreme.LambdaUSD <= moderate.LambdaUSD {
		t.Fatalf("k=0 lambda bill $%.2f not above k=1's $%.2f", extreme.LambdaUSD, moderate.LambdaUSD)
	}
}

func TestCompareDayStrategies(t *testing.T) {
	rows := CompareDayStrategies(4)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	total := 0
	for _, r := range rows {
		total += r.Jobs
		if r.TotalUSD <= 0 {
			t.Fatalf("zero cost row: %+v", r)
		}
	}
	if total == 0 {
		t.Fatal("no jobs simulated")
	}
}

func TestDaySimDeterministic(t *testing.T) {
	a := SimulateDay(DefaultDayConfig(StrategyBridge, 0))
	b := SimulateDay(DefaultDayConfig(StrategyBridge, 0))
	if a != b {
		t.Fatalf("nondeterministic day sim:\n%+v\n%+v", a, b)
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := newTestRNG()
	const mean = 7.5
	n := 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(poisson(rng, mean))
	}
	got := sum / float64(n)
	if math.Abs(got-mean) > 0.15 {
		t.Fatalf("poisson mean = %v, want ~%v", got, mean)
	}
	if poisson(rng, 0) != 0 {
		t.Fatal("poisson(0) != 0")
	}
	// Large-mean path.
	big := poisson(rng, 1000)
	if big < 800 || big > 1200 {
		t.Fatalf("poisson(1000) = %d", big)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if q := Quantile(xs, 0.99); q != 5 {
		t.Fatalf("p99 = %v", q)
	}
	if Quantile([]float64(nil), 0.5) != 0 {
		t.Fatal("empty quantile")
	}
	// The index rounds up: ceil(0.5·3) = 2.
	if q := Quantile([]time.Duration{10, 20, 30, 40}, 0.5); q != 30 {
		t.Fatalf("even-length median = %v", q)
	}
	if q := Quantile([]int64{7}, 0.99); q != 7 {
		t.Fatalf("singleton p99 = %v", q)
	}
}

// newTestRNG gives tests a deterministic generator.
func newTestRNG() *simrand.RNG { return simrand.New(99) }

// TestDayArrivalsSplitEquivalence pins the refactor contract: SimulateDay
// must equal SimulateDayTrace over the arrivals DayArrivals draws — the
// split the cluster layer relies on to replay the identical day through
// its discrete-event scheduler.
func TestDayArrivalsSplitEquivalence(t *testing.T) {
	for _, strategy := range []Strategy{StrategyQueue, StrategyAutoscale, StrategyBridge} {
		cfg := DefaultDayConfig(strategy, 1)
		cfg.Seed = 77
		direct := SimulateDay(cfg)
		arrivals := DayArrivals(cfg)
		replayed := SimulateDayTrace(cfg, arrivals)
		if direct != replayed {
			t.Errorf("%s: SimulateDay %+v != SimulateDayTrace(DayArrivals) %+v",
				strategy, direct, replayed)
		}
		if len(arrivals) != direct.Jobs {
			t.Errorf("%s: %d arrivals but %d jobs simulated", strategy, len(arrivals), direct.Jobs)
		}
		for i := 1; i < len(arrivals); i++ {
			if arrivals[i] < arrivals[i-1] {
				t.Fatalf("%s: arrivals not sorted at %d: %v < %v", strategy, i, arrivals[i], arrivals[i-1])
			}
		}
	}
}

// TestKeepProcuredRaisesAutoscaleCost: the keep-forever counterfactual
// must bill strictly more procured vCPU-hours (and dollars) than the
// default perfect-scale-down accounting, while leaving job outcomes —
// which only depend on when capacity arrives, not how long it is kept —
// byte-for-byte identical.
func TestKeepProcuredRaisesAutoscaleCost(t *testing.T) {
	cfg := DefaultDayConfig(StrategyAutoscale, 0)
	cfg.Seed = 41
	arrivals := DayArrivals(cfg)
	perfect := SimulateDayTrace(cfg, arrivals)
	if perfect.AutoscaleVMHours <= 0 || perfect.VMAutoscaleUSD <= 0 {
		t.Fatalf("no procurement simulated: %+v", perfect)
	}
	keepCfg := cfg
	keepCfg.KeepProcured = true
	kept := SimulateDayTrace(keepCfg, arrivals)
	if kept.AutoscaleVMHours <= perfect.AutoscaleVMHours {
		t.Errorf("keep-forever vCPU-hours %.3f not above perfect scale-down %.3f",
			kept.AutoscaleVMHours, perfect.AutoscaleVMHours)
	}
	if kept.VMAutoscaleUSD <= perfect.VMAutoscaleUSD {
		t.Errorf("keep-forever cost $%.4f not above perfect scale-down $%.4f",
			kept.VMAutoscaleUSD, perfect.VMAutoscaleUSD)
	}
	if kept.SLOViolations != perfect.SLOViolations ||
		kept.MeanStretch != perfect.MeanStretch || kept.P99Stretch != perfect.P99Stretch {
		t.Errorf("capacity retention changed job outcomes:\nkeep    %+v\nperfect %+v", kept, perfect)
	}
}
