package cloud

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"splitserve/internal/netsim"
	"splitserve/internal/simclock"
	"splitserve/internal/simrand"
)

func newProvider(opts Options) (*simclock.Clock, *Provider) {
	c := simclock.New(simclock.Epoch)
	n := netsim.New(c)
	return c, NewProvider(c, n, simrand.New(1), opts)
}

func TestSmallestFor(t *testing.T) {
	tests := []struct {
		cores     int
		wantType  string
		wantCount int
	}{
		{1, "m4.large", 1},
		{2, "m4.large", 1},
		{4, "m4.xlarge", 1},
		{8, "m4.2xlarge", 1},
		{16, "m4.4xlarge", 1},
		{32, "m4.10xlarge", 1},
		{64, "m4.16xlarge", 1},
		{128, "m4.16xlarge", 2},
	}
	for _, tt := range tests {
		typ, n := SmallestFor(tt.cores)
		if typ.Name != tt.wantType || n != tt.wantCount {
			t.Errorf("SmallestFor(%d) = %s x%d, want %s x%d",
				tt.cores, typ.Name, n, tt.wantType, tt.wantCount)
		}
	}
}

func TestSmallestForPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SmallestFor(0)
}

func TestLambdaConfigValidate(t *testing.T) {
	if err := (LambdaConfig{MemoryMB: 1536}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := (LambdaConfig{MemoryMB: 64}).Validate(); err == nil {
		t.Fatal("64MB accepted")
	}
	if err := (LambdaConfig{MemoryMB: 4096}).Validate(); err == nil {
		t.Fatal("4GB accepted")
	}
}

func TestLambdaCPUShare(t *testing.T) {
	if got := (LambdaConfig{MemoryMB: 1536}).CPUShare(); got != 1.0 {
		t.Fatalf("CPUShare(1536) = %v, want 1", got)
	}
	if got := (LambdaConfig{MemoryMB: 768}).CPUShare(); got != 0.5 {
		t.Fatalf("CPUShare(768) = %v, want 0.5", got)
	}
}

func TestVMBootDelay(t *testing.T) {
	c, p := newProvider(DefaultOptions())
	var readyAt time.Time
	vm := p.RequestVM(M4XLarge, 0, func(v *VM) { readyAt = v.ReadyAt })
	if vm.State != VMPending {
		t.Fatalf("state = %v, want pending", vm.State)
	}
	c.Run()
	if vm.State != VMReady {
		t.Fatalf("state = %v, want ready", vm.State)
	}
	boot := readyAt.Sub(simclock.Epoch)
	if boot < 30*time.Second || boot > 6*time.Minute {
		t.Fatalf("boot delay %v outside plausible envelope", boot)
	}
}

func TestVMBootOverride(t *testing.T) {
	c, p := newProvider(DefaultOptions())
	vm := p.RequestVM(M4XLarge, 45*time.Second, nil)
	c.Run()
	if got := vm.ReadyAt.Sub(simclock.Epoch); got != 45*time.Second {
		t.Fatalf("boot = %v, want 45s", got)
	}
}

func TestProvisionReadyVM(t *testing.T) {
	_, p := newProvider(DefaultOptions())
	vm := p.ProvisionReadyVM(M44XLarge)
	if vm.State != VMReady {
		t.Fatalf("state = %v", vm.State)
	}
	if vm.EBS.Capacity() != netsim.Mbps(2000) {
		t.Fatalf("EBS capacity = %v", vm.EBS.Capacity())
	}
}

func TestTerminateVMStopsUptime(t *testing.T) {
	c, p := newProvider(DefaultOptions())
	vm := p.ProvisionReadyVM(M4Large)
	c.After(90*time.Second, func() { p.TerminateVM(vm) })
	c.Run()
	c.After(time.Hour, func() {})
	c.Run()
	if got := vm.Uptime(c.Now()); got != 90*time.Second {
		t.Fatalf("uptime = %v, want 90s", got)
	}
}

func TestWarmLambdaStartsFast(t *testing.T) {
	c, p := newProvider(DefaultOptions())
	l, err := p.Invoke(LambdaConfig{MemoryMB: 1536}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.RunUntil(simclock.Epoch.Add(time.Second))
	if l.State != LambdaRunning {
		t.Fatalf("state = %v, want running", l.State)
	}
	if got := l.ReadyAt.Sub(l.InvokedAt); got != 100*time.Millisecond {
		t.Fatalf("warm start = %v, want 100ms", got)
	}
	if l.ColdStart {
		t.Fatal("expected warm start")
	}
}

func TestColdLambdaWhenPoolExhausted(t *testing.T) {
	opts := DefaultOptions()
	opts.WarmPoolSize = 1
	c, p := newProvider(opts)
	l1, _ := p.Invoke(LambdaConfig{MemoryMB: 1536}, nil, nil)
	l2, _ := p.Invoke(LambdaConfig{MemoryMB: 1536}, nil, nil)
	c.RunUntil(simclock.Epoch.Add(time.Minute))
	if l1.ColdStart {
		t.Fatal("first invocation should be warm")
	}
	if !l2.ColdStart {
		t.Fatal("second invocation should be cold")
	}
	if got := l2.ReadyAt.Sub(l2.InvokedAt); got != lambdaColdStart {
		t.Fatalf("cold start = %v, want %v", got, lambdaColdStart)
	}
}

func TestReleaseReturnsEnvironmentToWarmPool(t *testing.T) {
	opts := DefaultOptions()
	opts.WarmPoolSize = 1
	c, p := newProvider(opts)
	l1, _ := p.Invoke(LambdaConfig{MemoryMB: 1536}, nil, nil)
	c.RunUntil(simclock.Epoch.Add(time.Second))
	p.Release(l1)
	l2, _ := p.Invoke(LambdaConfig{MemoryMB: 1536}, nil, nil)
	c.RunUntil(simclock.Epoch.Add(2 * time.Second))
	if l2.ColdStart {
		t.Fatal("released environment not reused warm")
	}
}

func TestLambdaLifetimeExpiry(t *testing.T) {
	c, p := newProvider(DefaultOptions())
	var expired *Lambda
	l, _ := p.Invoke(LambdaConfig{MemoryMB: 1536}, nil, func(x *Lambda) { expired = x })
	c.Run() // runs the lifetime timer out
	if expired != l {
		t.Fatal("lifetime expiry callback did not fire")
	}
	if l.State != LambdaExpired {
		t.Fatalf("state = %v, want expired", l.State)
	}
	if got := l.EndedAt.Sub(l.ReadyAt); got != 15*time.Minute {
		t.Fatalf("lifetime = %v, want 15m", got)
	}
}

func TestReleaseCancelsExpiry(t *testing.T) {
	c, p := newProvider(DefaultOptions())
	expired := false
	l, _ := p.Invoke(LambdaConfig{MemoryMB: 1536}, nil, func(*Lambda) { expired = true })
	c.RunUntil(simclock.Epoch.Add(time.Minute))
	p.Release(l)
	c.Run()
	if expired {
		t.Fatal("expiry fired after release")
	}
	if l.State != LambdaFinished {
		t.Fatalf("state = %v", l.State)
	}
}

func TestTimeToLive(t *testing.T) {
	c, p := newProvider(DefaultOptions())
	l, _ := p.Invoke(LambdaConfig{MemoryMB: 1536}, nil, nil)
	c.RunUntil(simclock.Epoch.Add(5*time.Minute + 100*time.Millisecond))
	got := p.TimeToLive(l)
	if got != 10*time.Minute {
		t.Fatalf("TimeToLive = %v, want 10m", got)
	}
}

func TestInvokeRejectsBadConfig(t *testing.T) {
	_, p := newProvider(DefaultOptions())
	if _, err := p.Invoke(LambdaConfig{MemoryMB: 10}, nil, nil); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestBilledDuration(t *testing.T) {
	c, p := newProvider(DefaultOptions())
	l, _ := p.Invoke(LambdaConfig{MemoryMB: 1536}, nil, nil)
	c.RunUntil(simclock.Epoch.Add(30 * time.Second))
	p.Release(l)
	if got := l.BilledDuration(c.Now()); got != 30*time.Second {
		t.Fatalf("billed = %v, want 30s", got)
	}
}

func TestEgressBandwidthScalesWithMemory(t *testing.T) {
	small := LambdaConfig{MemoryMB: 512}.EgressMbps()
	big := LambdaConfig{MemoryMB: 3008}.EgressMbps()
	if small >= big {
		t.Fatalf("egress not increasing: %v vs %v", small, big)
	}
}

// Property: boot delays are always positive and within the truncation
// envelope regardless of seed.
func TestQuickBootDelayEnvelope(t *testing.T) {
	prop := func(seed uint64) bool {
		c := simclock.New(simclock.Epoch)
		p := NewProvider(c, netsim.New(c), simrand.New(seed), DefaultOptions())
		for i := 0; i < 20; i++ {
			d := p.BootDelay()
			if d < 27*time.Second || d > 330*time.Second {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: every invocation eventually reaches a terminal state if
// released or left to expire; warm-pool accounting never goes negative.
func TestQuickLambdaLifecycle(t *testing.T) {
	prop := func(seed uint64, count uint8) bool {
		m := int(count%16) + 1
		rng := simrand.New(seed)
		opts := DefaultOptions()
		opts.WarmPoolSize = m / 2
		c := simclock.New(simclock.Epoch)
		p := NewProvider(c, netsim.New(c), simrand.New(seed+1), opts)
		var ls []*Lambda
		for i := 0; i < m; i++ {
			l, err := p.Invoke(LambdaConfig{MemoryMB: 1536}, nil, nil)
			if err != nil {
				return false
			}
			ls = append(ls, l)
			if rng.Float64() < 0.7 {
				hold := time.Duration(rng.Intn(600)) * time.Second
				c.After(hold, func() { p.Release(l) })
			}
		}
		c.Run()
		for _, l := range ls {
			if l.State != LambdaFinished && l.State != LambdaExpired {
				return false
			}
		}
		for _, v := range p.WarmSnapshot() {
			if v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCreditGaugeFullSpeedWhileCredits(t *testing.T) {
	g := NewCreditGauge(T3Large, T3BaselineFraction, 700, simclock.Epoch)
	// 700 credits / 0.7 burn = 1000s of full-speed burst.
	wall := g.RunFor(simclock.Epoch, 500)
	if wall != 500 {
		t.Fatalf("wall = %v, want 500 (credits ample)", wall)
	}
	if g.Credits() >= 700 {
		t.Fatal("credits not consumed")
	}
}

func TestCreditGaugeBaselineWhenDepleted(t *testing.T) {
	g := NewCreditGauge(T3Large, T3BaselineFraction, 0, simclock.Epoch)
	wall := g.RunFor(simclock.Epoch, 300)
	want := 300 / T3BaselineFraction
	if wall < want*0.99 || wall > want*1.01 {
		t.Fatalf("wall = %v, want ~%v (baseline only)", wall, want)
	}
}

func TestCreditGaugeBlendedRun(t *testing.T) {
	g := NewCreditGauge(T3Large, T3BaselineFraction, 70, simclock.Epoch)
	// 70/0.7 = 100s at full speed, then (300-100)/0.3 at baseline.
	wall := g.RunFor(simclock.Epoch, 300)
	want := 100 + 200/T3BaselineFraction
	if wall < want*0.99 || wall > want*1.01 {
		t.Fatalf("wall = %v, want ~%v", wall, want)
	}
	if g.Credits() != 0 {
		t.Fatalf("credits = %v after depletion", g.Credits())
	}
}

func TestCreditGaugeAccrues(t *testing.T) {
	g := NewCreditGauge(T3Large, T3BaselineFraction, 0, simclock.Epoch)
	g.Advance(simclock.Epoch.Add(time.Hour))
	// t3.large accrues 48 credit-minutes/hour = 2880 vCPU-seconds.
	if got := g.Credits(); got < 2800 || got > 2900 {
		t.Fatalf("credits after 1h = %v, want ~2880", got)
	}
	// Capped at a day's worth.
	g.Advance(simclock.Epoch.Add(100 * 24 * time.Hour))
	if got := g.Credits(); got > T3CreditsPerHourPerVCPU*60*2*24+1 {
		t.Fatalf("credits uncapped: %v", got)
	}
}

func TestProvisionReadyBurstableVM(t *testing.T) {
	_, p := newProvider(DefaultOptions())
	vm, gauge := p.ProvisionReadyBurstableVM(T3Large, T3BaselineFraction, 100)
	if vm.State != VMReady || gauge.Credits() != 100 {
		t.Fatalf("burstable provisioning broken: %v %v", vm.State, gauge.Credits())
	}
}

// TestLambdaIDMatchesSprintf: Lambda IDs keep the bytes of fmt's
// "la-%03d", past the padding width too.
func TestLambdaIDMatchesSprintf(t *testing.T) {
	for _, n := range []int{0, 1, 9, 10, 99, 100, 999, 1000, 123456} {
		if got, want := lambdaID(n), fmt.Sprintf("la-%03d", n); got != want {
			t.Errorf("lambdaID(%d) = %q, want %q", n, got, want)
		}
	}
}
