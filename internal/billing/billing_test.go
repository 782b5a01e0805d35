package billing

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"splitserve/internal/telemetry"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVMCostMinimumMinute(t *testing.T) {
	// 10s billed as 60s.
	got := VMCost(3.6, 10*time.Second) // $3.6/h = $0.001/s
	if !approx(got, 0.06, 1e-9) {
		t.Fatalf("VMCost(10s) = %v, want 0.06", got)
	}
}

func TestVMCostPerSecondAfterMinute(t *testing.T) {
	got := VMCost(3.6, 90*time.Second)
	if !approx(got, 0.09, 1e-9) {
		t.Fatalf("VMCost(90s) = %v, want 0.09", got)
	}
}

func TestVMCostCeilsSeconds(t *testing.T) {
	got := VMCost(3.6, 90*time.Second+time.Millisecond)
	if !approx(got, 0.091, 1e-9) {
		t.Fatalf("VMCost(90.001s) = %v, want 0.091", got)
	}
}

func TestVMCoreCostProportional(t *testing.T) {
	full := VMCost(0.10, 2*time.Minute)
	half := VMCoreCost(0.10, 2, 1, 2*time.Minute)
	if !approx(half, full/2, 1e-12) {
		t.Fatalf("half-core cost %v, want %v", half, full/2)
	}
}

func TestVMCoreCostClampsUsed(t *testing.T) {
	if got := VMCoreCost(0.10, 2, 5, time.Minute); !approx(got, VMCost(0.10, time.Minute), 1e-12) {
		t.Fatalf("over-used cores not clamped: %v", got)
	}
	if got := VMCoreCost(0.10, 0, 1, time.Minute); got != 0 {
		t.Fatalf("zero-core VM cost = %v", got)
	}
}

func TestLambdaCostQuantum(t *testing.T) {
	// 250ms rounds to 300ms. 1536MB = 1.5GB.
	got := LambdaCost(1536, 250*time.Millisecond)
	want := 1.5*0.3*LambdaGBSecondUSD + LambdaInvocationUSD
	if !approx(got, want, 1e-12) {
		t.Fatalf("LambdaCost = %v, want %v", got, want)
	}
}

func TestLambdaCostMinimumOneQuantum(t *testing.T) {
	got := LambdaCost(1536, 0)
	want := 1.5*0.1*LambdaGBSecondUSD + LambdaInvocationUSD
	if !approx(got, want, 1e-12) {
		t.Fatalf("LambdaCost(0) = %v, want %v", got, want)
	}
}

func TestLambdaCheaperThanVMForShortRuns(t *testing.T) {
	// Paper Figure 1: below the crossover the Lambda is cheaper because the
	// VM charges a full minute.
	lam := LambdaCost(1536, 5*time.Second)
	vm := VMCoreCost(0.10, 2, 1, 5*time.Second)
	if lam >= vm {
		t.Fatalf("5s: lambda $%v should be < vm $%v", lam, vm)
	}
}

func TestLambdaOvershootsVM(t *testing.T) {
	// Beyond the crossover, the Lambda is more expensive per Figure 1.
	cross := LambdaOvershootTime(0.10)
	if cross <= 0 || cross > 60*time.Second {
		t.Fatalf("crossover = %v, want within the first minute", cross)
	}
	lam := LambdaCost(1536, 5*time.Minute)
	vm := VMCoreCost(0.10, 2, 1, 5*time.Minute)
	if lam <= vm {
		t.Fatalf("5min: lambda $%v should be > vm $%v", lam, vm)
	}
}

func TestFigure1CurveShape(t *testing.T) {
	pts := Figure1Curve(0.10, time.Second, 2*time.Minute)
	if len(pts) != 120 {
		t.Fatalf("got %d points", len(pts))
	}
	// VM flat for the first 60s.
	for i := 0; i < 59; i++ {
		if pts[i].VMvCPUUSD != pts[i+1].VMvCPUUSD {
			t.Fatalf("VM cost not flat during minimum at %v", pts[i].Duration)
		}
	}
	// Monotone non-decreasing after.
	for i := 60; i < len(pts)-1; i++ {
		if pts[i+1].VMvCPUUSD < pts[i].VMvCPUUSD {
			t.Fatal("VM cost decreased")
		}
	}
	for i := 0; i < len(pts)-1; i++ {
		if pts[i+1].LambdaUSD < pts[i].LambdaUSD {
			t.Fatal("Lambda cost decreased")
		}
	}
}

func TestS3RequestCost(t *testing.T) {
	got := S3RequestCost(1000, 10000)
	want := 1000*S3PutUSD + 10000*S3GetUSD
	if !approx(got, want, 1e-12) {
		t.Fatalf("S3RequestCost = %v, want %v", got, want)
	}
}

func TestMeterAccumulates(t *testing.T) {
	var m Meter
	m.AddVM("vm-1", 0.10, 2, 2, 2*time.Minute)
	m.AddLambda("la-1", 1536, 30*time.Second)
	m.AddS3("bucket", 100, 200)
	want := VMCost(0.10, 2*time.Minute) + LambdaCost(1536, 30*time.Second) + S3RequestCost(100, 200)
	if !approx(m.Total(), want, 1e-12) {
		t.Fatalf("Total = %v, want %v", m.Total(), want)
	}
	byKind := m.TotalByKind()
	if len(byKind) != 3 {
		t.Fatalf("kinds = %v", byKind)
	}
	if len(m.Items()) != 3 {
		t.Fatalf("items = %d", len(m.Items()))
	}
	if m.String() == "" {
		t.Fatal("empty String")
	}
}

func TestMeterZeroValue(t *testing.T) {
	var m Meter
	if m.Total() != 0 {
		t.Fatal("zero meter non-zero total")
	}
}

// Property: both billing functions are monotone in duration and
// non-negative.
func TestQuickBillingMonotone(t *testing.T) {
	prop := func(aMS, bMS uint32) bool {
		a := time.Duration(aMS) * time.Millisecond
		b := time.Duration(bMS) * time.Millisecond
		if a > b {
			a, b = b, a
		}
		if VMCost(0.10, a) > VMCost(0.10, b) {
			return false
		}
		if LambdaCost(1536, a) > LambdaCost(1536, b) {
			return false
		}
		return VMCost(0.10, a) >= 0 && LambdaCost(128, a) > 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Lambda cost scales linearly with memory for a fixed duration.
func TestQuickLambdaMemoryLinear(t *testing.T) {
	prop := func(dMS uint16) bool {
		d := time.Duration(dMS) * time.Millisecond
		c1 := LambdaCost(1024, d) - LambdaInvocationUSD
		c2 := LambdaCost(2048, d) - LambdaInvocationUSD
		return approx(c2, 2*c1, 1e-12)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVMSavings(t *testing.T) {
	// Releasing 30 min into a 60-min counterfactual saves half the hour.
	got := VMSavings(3.6, 30*time.Minute, time.Hour)
	if !approx(got, VMCost(3.6, time.Hour)-VMCost(3.6, 30*time.Minute), 1e-12) {
		t.Fatalf("VMSavings(30m of 1h) = %v", got)
	}
	// Inside the 60 s minimum both legs bill the same — nothing saved.
	if got := VMSavings(3.6, 10*time.Second, 50*time.Second); got != 0 {
		t.Fatalf("VMSavings inside minimum = %v, want 0", got)
	}
	// Actual beyond the counterfactual clamps at zero, never negative.
	if got := VMSavings(3.6, 2*time.Hour, time.Hour); got != 0 {
		t.Fatalf("VMSavings(actual > counterfactual) = %v, want 0", got)
	}
}

// TestMeterTotalsMatchByKind: Totals sums each kind in item order, so its
// floats are TotalByKind's entries (0 for a kind never billed) and Total,
// bit for bit.
func TestMeterTotalsMatchByKind(t *testing.T) {
	var m Meter
	if vm, lambda, total := m.Totals(); vm != 0 || lambda != 0 || total != 0 {
		t.Fatalf("empty meter Totals = %v, %v, %v", vm, lambda, total)
	}
	for i := 0; i < 50; i++ {
		m.AddLambda("l", 1536, time.Duration(i*37)*time.Millisecond)
		if i%3 == 0 {
			m.AddVM("vm", 0.2, 4, 1, time.Duration(i)*time.Second+time.Minute)
		}
		if i%7 == 0 {
			m.AddS3("s3", int64(i), int64(2*i))
		}
	}
	vm, lambda, total := m.Totals()
	byKind := m.TotalByKind()
	if vm != byKind["vm"] || lambda != byKind["lambda"] || total != m.Total() {
		t.Fatalf("Totals = %v, %v, %v; TotalByKind and Total give %v, %v, %v",
			vm, lambda, total, byKind["vm"], byKind["lambda"], m.Total())
	}
}

// TestMetersOnOneHubShareCounters: every meter on a hub adds into the
// hub's per-kind counters, and a kind no meter billed exports none. The
// meters bill from goroutines of their own, as the hub's instruments
// allow, so the race detector sees the shared counter set.
func TestMetersOnOneHubShareCounters(t *testing.T) {
	hub := telemetry.NewUntraced()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var m Meter
			m.SetTelemetry(hub)
			m.AddVM("vm", 3.6, 1, 1, time.Minute)
			m.AddLambda("l", 1024, 100*time.Millisecond)
			m.AddLambda("l", 1024, 100*time.Millisecond)
		}()
	}
	wg.Wait()
	counters := map[string]float64{}
	for _, c := range hub.Report().Counters {
		counters[c.Name+"/"+c.Labels["kind"]] = c.Value
	}
	want := map[string]float64{
		"billing_items_total/vm":        3,
		"billing_items_total/lambda":    6,
		"billing_cost_usd_total/vm":     3 * VMCost(3.6, time.Minute),
		"billing_cost_usd_total/lambda": 6 * LambdaCost(1024, 100*time.Millisecond),
	}
	if len(counters) != len(want) {
		t.Fatalf("hub counters = %v, want exactly %v", counters, want)
	}
	for k, v := range want {
		if !approx(counters[k], v, 1e-12) {
			t.Errorf("%s = %v, want %v", k, counters[k], v)
		}
	}
}
