package engine

import (
	"fmt"
	"testing"
	"time"

	"splitserve/internal/cloud"
	"splitserve/internal/netsim"
	"splitserve/internal/simclock"
	"splitserve/internal/simrand"
	"splitserve/internal/storage"
)

// manualBackend lets tests register executors with custom specs.
type manualBackend struct{ c *Cluster }

func (b *manualBackend) Start(c *Cluster)            { b.c = c }
func (b *manualBackend) SetDesiredTotal(int)         {}
func (b *manualBackend) AllowAssign(*Executor) bool  { return true }
func (b *manualBackend) ExecutorDrained(e *Executor) { b.c.RemoveExecutor(e.ID, false, "drained") }
func (b *manualBackend) ReleaseIdle(*Executor)       {}
func (b *manualBackend) JobSubmitted(time.Duration)  {}

// fleetHarness returns a started cluster whose backend registers nothing
// itself, a fleet on it over one 4-core VM, and that VM's slots.
func fleetHarness(t *testing.T) (*Cluster, *Fleet, *VMSlots, *cloud.VM) {
	t.Helper()
	clock := simclock.New(simclock.Epoch)
	net := netsim.New(clock)
	provider := cloud.NewProvider(clock, net, simrand.New(5), cloud.DefaultOptions())
	vm := provider.ProvisionReadyVM(cloud.M4XLarge)
	c, err := New(Config{
		Clock: clock, Net: net, Provider: provider,
		Store: storage.NewLocal(clock, net), Backend: &manualBackend{},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	slots := &VMSlots{}
	slots.AddBudget([]*cloud.VM{vm}, -1)
	f := &Fleet{}
	f.Start(c, "t", FleetHooks{FreeCore: slots.Free})
	return c, f, slots, vm
}

// TestFleetVMLaunchDemandRecheck: a launch that re-checks demand drops,
// and frees its core, when the target fell while it was in flight; a
// launch that does not (a segue replacement) registers regardless.
func TestFleetVMLaunchDemandRecheck(t *testing.T) {
	c, f, slots, vm := fleetHarness(t)
	f.Desired = 2
	checked := f.LaunchVM(slots.Take(), 0, nil, true)
	forced := f.LaunchVM(slots.Take(), 0, nil, false)
	if checked != "t-v01" || forced != "t-v02" {
		t.Fatalf("IDs = %q, %q, want t-v01, t-v02", checked, forced)
	}
	f.Desired = 0
	c.Clock().RunFor(2 * time.Second)

	if c.Executor(checked) != nil || c.Executor(forced) == nil {
		t.Fatalf("registered: %s=%v %s=%v, want only %s",
			checked, c.Executor(checked) != nil, forced, c.Executor(forced) != nil, forced)
	}
	if f.VMLive != 1 || f.VMPending != 0 {
		t.Fatalf("VMLive/VMPending = %d/%d, want 1/0", f.VMLive, f.VMPending)
	}
	// The dropped launch gave its core back: 3 of 4 are free.
	for i := 0; i < 3; i++ {
		if slots.Take() != vm {
			t.Fatalf("core %d of the 3 free ones not available", i+1)
		}
	}
	if slots.Take() != nil {
		t.Fatal("more than 3 free cores after one drop and one registration")
	}
}

// TestFleetCloseDropsLaunches: launches in flight when the fleet closes
// give back their core or release their Lambda instead of registering.
func TestFleetCloseDropsLaunches(t *testing.T) {
	c, f, slots, _ := fleetHarness(t)
	f.Desired = 2
	f.LaunchVM(slots.Take(), 0, nil, false)
	l := f.LaunchLambda(1536, LambdaLaunchDelay, nil)
	f.Close()
	c.Clock().RunFor(time.Minute)

	if n := len(c.AllExecutors()); n != 0 {
		t.Fatalf("%d executors registered after Close", n)
	}
	if f.Live() != 0 || f.InFlight() != 0 {
		t.Fatalf("Live/InFlight = %d/%d, want 0/0", f.Live(), f.InFlight())
	}
	if l.State != cloud.LambdaFinished {
		t.Fatalf("Lambda state %v, want released", l.State)
	}
	if slots.Ready() != 4 || slots.Take() == nil {
		t.Fatal("the dropped VM launch kept its core")
	}
}

// TestExecutorIDMatchesSprintf: executor IDs keep the bytes of fmt's
// "%s-%c%02d", past the padding width too.
func TestExecutorIDMatchesSprintf(t *testing.T) {
	for _, n := range []int{0, 1, 9, 10, 99, 100, 999, 1000, 123456} {
		for _, kind := range []byte{'v', 'l', 'w'} {
			f := Fleet{prefix: "s1-j042", seq: n - 1}
			if got, want := f.nextID(kind), fmt.Sprintf("%s-%c%02d", f.prefix, kind, n); got != want {
				t.Errorf("nextID(%c) at seq %d = %q, want %q", kind, n, got, want)
			}
		}
	}
}
