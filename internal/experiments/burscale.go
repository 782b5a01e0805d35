package experiments

import (
	"fmt"
	"time"

	"splitserve/internal/billing"
	"splitserve/internal/cloud"
	"splitserve/internal/netsim"
	"splitserve/internal/simclock"
	"splitserve/internal/simrand"
	"splitserve/internal/spark/engine"
	"splitserve/internal/storage"
	"splitserve/internal/workloads"
	"splitserve/internal/workloads/pagerank"
)

// Extension experiment: BurScale-style burstable standbys versus
// SplitServe's Lambdas. The paper positions BurScale [7] as a
// complementary remedy — standby burstable VMs absorb a transient
// overload — but notes that "BurScale's efficacy relies on being able to
// manage token state properly despite workload uncertainty, a complexity
// SplitServe does not face". This experiment quantifies that: a PageRank
// burst is bridged either by 13 Lambdas (SplitServe) or by 7 standby
// t3.large instances whose CPU-credit balance may or may not be healthy.

// BurScaleResult compares the three bridging options.
type BurScaleResult struct {
	Label    string
	ExecTime time.Duration
	CostUSD  float64
}

// ExtensionBurScale runs the comparison: SplitServe hybrid vs burstable
// standbys with full credits vs burstable standbys that arrive depleted
// (the token-state risk the paper alludes to).
func ExtensionBurScale(seed uint64) ([]BurScaleResult, error) {
	w := pagerank.New(pagerankConfig(seed))

	hybrid, err := Run(Scenario{
		Kind: SSHybrid, R: 16, SmallR: 3,
		WorkerVMType: cloud.M44XLarge,
		MasterVMType: cloud.M4XLarge,
		Seed:         seed,
	}, w)
	if err != nil {
		return nil, fmt.Errorf("burscale: hybrid: %w", err)
	}

	full, err := runBurstableStandby(seed, w, 30*60) // 30 vCPU-minutes each
	if err != nil {
		return nil, err
	}
	depleted, err := runBurstableStandby(seed, w, 0)
	if err != nil {
		return nil, err
	}
	return []BurScaleResult{
		{Label: "SplitServe 3 VM / 13 La", ExecTime: hybrid.ExecTime, CostUSD: hybrid.CostUSD},
		{Label: "BurScale standby t3 (full credits)", ExecTime: full.ExecTime, CostUSD: full.CostUSD},
		{Label: "BurScale standby t3 (depleted credits)", ExecTime: depleted.ExecTime, CostUSD: depleted.CostUSD},
	}, nil
}

// runBurstableStandby executes the workload on 3 regular cores plus 7
// burstable t3.large standbys (14 cores) with the given initial credit
// balance per instance.
func runBurstableStandby(seed uint64, w workloads.Workload, creditsSeconds float64) (*BurScaleResult, error) {
	clock := simclock.New(simclock.Epoch)
	net := netsim.New(clock)
	provider := cloud.NewProvider(clock, net, simrand.New(seed+1), cloud.DefaultOptions())
	_ = provider.ProvisionReadyVM(cloud.M4XLarge) // master

	worker := provider.ProvisionReadyVM(cloud.M44XLarge)
	standbys := make([]*cloud.VM, 0, 7)
	gauges := make(map[string]*cloud.CreditGauge, 7)
	for i := 0; i < 7; i++ {
		vm, gauge := provider.ProvisionReadyBurstableVM(cloud.T3Large, cloud.T3BaselineFraction, creditsSeconds)
		standbys = append(standbys, vm)
		gauges[vm.ID] = gauge
	}

	backend := engine.NewStandalone(engine.StandaloneConfig{
		VMs:            []*cloud.VM{worker},
		UsableCores:    3,
		StandbyVMs:     standbys,
		StandbyCredits: gauges,
	})
	cluster, err := engine.New(engine.Config{
		AppID:               "burscale",
		Clock:               clock,
		Net:                 net,
		Provider:            provider,
		Store:               storage.NewLocal(clock, net),
		Backend:             backend,
		Alloc:               engine.DefaultAllocConfig(engine.AllocStatic, 16, 16),
		SLO:                 w.SLO(),
		StageLaunchOverhead: engine.DefaultStageLaunchOverhead,
		TaskDispatchCost:    engine.DefaultTaskDispatchCost,
	})
	if err != nil {
		return nil, err
	}
	report, err := w.Run(cluster)
	if err != nil {
		return nil, fmt.Errorf("burscale: standby run: %w", err)
	}
	elapsed := report.Elapsed + appStartup

	// Marginal cost: the worker's 3 cores plus the standbys for the run.
	var meter billing.Meter
	meter.AddVM(worker.Type.PricePerHour, worker.Type.VCPUs, 3, elapsed)
	for _, vm := range standbys {
		meter.AddVM(vm.Type.PricePerHour, vm.Type.VCPUs, vm.Type.VCPUs, elapsed)
	}
	return &BurScaleResult{
		Label:    fmt.Sprintf("burstable standby (credits=%.0fs)", creditsSeconds),
		ExecTime: elapsed,
		CostUSD:  meter.Total(),
	}, nil
}
