package autoscale

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"time"

	"splitserve/internal/billing"
	"splitserve/internal/simrand"
)

// Day-long inter-job simulation — the "larger system" of the paper's
// Section 4.1 (Figure 3's top box): a stream of latency-critical jobs
// arrives over a workday; an inter-job manager provisions VM capacity by a
// policy m(t) + k·σ(t); and each arriving job either fits the free VM
// cores, or experiences one of three fates depending on the tenant's
// strategy:
//
//   - StrategyQueue (pure VM, no autoscaling): the job runs on whatever
//     cores are free and is slowed proportionally — SLO violations pile up.
//   - StrategyAutoscale (pure VM + autoscaling): extra VMs are requested
//     but arrive after the boot delay; the shortfall until then still
//     slows the job, and the procured VMs are paid for.
//   - StrategyBridge (SplitServe): the shortfall is served immediately by
//     Lambdas at a configurable hybrid slowdown (calibrated from the
//     intra-job experiments) and Lambda GB-seconds are paid.
//
// The simulation is intentionally coarser than the intra-job engine (jobs
// are fluid core-demands, not task graphs); its slowdown constants are
// taken from the measured Figure 5/6 scenarios, tying the two layers
// together.

// Strategy is the tenant's response to VM shortfall.
type Strategy int

// Strategies.
const (
	StrategyQueue Strategy = iota + 1
	StrategyAutoscale
	StrategyBridge
)

func (s Strategy) String() string {
	switch s {
	case StrategyQueue:
		return "queue"
	case StrategyAutoscale:
		return "vm-autoscale"
	case StrategyBridge:
		return "lambda-bridge"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// DayConfig parameterises the day simulation.
type DayConfig struct {
	Series SeriesConfig
	// PolicyK is the provisioning policy m(t) + k·σ(t).
	PolicyK float64
	// StaticWorstCase provisions the day's peak m(t)+k·σ(t) around the
	// clock ("always provisioning for the worst-case needs").
	StaticWorstCase bool
	// Strategy is the shortfall response.
	Strategy Strategy
	// JobCores and JobDuration describe the per-job demand (all jobs need
	// JobCores for JobDuration at full provisioning).
	JobCores    int
	JobDuration time.Duration
	// SLOFactor: a job violates its SLO if it runs longer than
	// SLOFactor x JobDuration.
	SLOFactor float64
	// VMBoot is the autoscale procurement delay.
	VMBoot time.Duration
	// KeepProcured bills autoscale-procured capacity from each job's
	// arrival to the end of the day instead of just the job's runtime —
	// the keep-forever counterfactual of the cluster layer's idle-timeout
	// scale-down. The default (false) models perfect scale-down: capacity
	// is paid only while the job that procured it runs.
	KeepProcured bool
	// HybridSlowdown is the execution-time multiplier when a job's
	// shortfall is lambda-bridged (measured ~1.05-1.2 in Figures 5/6).
	HybridSlowdown float64
	// VCPUPricePerHour and LambdaMemGB price the substrates.
	VCPUPricePerHour float64
	LambdaMemGB      float64
	Seed             uint64
}

// DefaultDayConfig uses the paper-calibrated constants. The fleet serves
// many concurrent 16-core jobs (overnight ~4, peak ~32), the regime the
// paper's Figure 2 sketches.
func DefaultDayConfig(strategy Strategy, k float64) DayConfig {
	series := DefaultSeriesConfig()
	series.BaseCores = 64
	series.PeakCores = 512
	return DayConfig{
		Series:           series,
		PolicyK:          k,
		Strategy:         strategy,
		JobCores:         16,
		JobDuration:      90 * time.Second,
		SLOFactor:        1.5,
		VMBoot:           110 * time.Second,
		HybridSlowdown:   1.10,
		VCPUPricePerHour: 0.05,
		LambdaMemGB:      1.5,
		Seed:             4,
	}
}

// DayResult summarises one simulated day.
type DayResult struct {
	Strategy Strategy
	PolicyK  float64
	// WorstCase marks the flat peak-capacity provisioning variant.
	WorstCase     bool
	Jobs          int
	SLOViolations int
	// MeanStretch is the mean job slowdown relative to full provisioning.
	MeanStretch float64
	P99Stretch  float64
	// AutoscaleVMHours is the billed vCPU-hours of procured-on-demand
	// capacity (fluid, so fractional); with KeepProcured it grows to the
	// end of the day and the gap to the default is what scale-down saves.
	AutoscaleVMHours float64
	// Costs.
	VMBaseUSD      float64 // the policy's provisioned fleet
	VMAutoscaleUSD float64 // procured-on-demand VMs
	LambdaUSD      float64 // bridged shortfall
	TotalUSD       float64
}

// Label names the row ("queue k=2 static-worst-case" etc.).
func (r DayResult) Label() string {
	label := fmt.Sprintf("%s-k%.0f", r.Strategy, r.PolicyK)
	if r.WorstCase {
		label += "-static-worst"
	}
	return label
}

// String renders the result.
func (r DayResult) String() string {
	kind := r.Strategy.String()
	if r.WorstCase {
		kind += " (static worst-case)"
	}
	return fmt.Sprintf("%-14s k=%.1f: %4d jobs, %3d SLO violations (%.1f%%), mean stretch %.2fx, p99 %.2fx, cost $%.2f (base $%.2f + scale $%.2f + lambda $%.2f)",
		kind, r.PolicyK, r.Jobs, r.SLOViolations,
		100*float64(r.SLOViolations)/math.Max(1, float64(r.Jobs)),
		r.MeanStretch, r.P99Stretch, r.TotalUSD, r.VMBaseUSD, r.VMAutoscaleUSD, r.LambdaUSD)
}

// SimulateDay runs one day of job arrivals under the given policy and
// strategy. It is exactly SimulateDayTrace over the arrivals DayArrivals
// draws, split so the cluster layer's discrete-event scheduler can replay
// the identical arrival pattern and be cross-checked against this fluid
// model (see internal/cluster).
func SimulateDay(cfg DayConfig) DayResult {
	return SimulateDayTrace(cfg, DayArrivals(cfg))
}

// DayArrivals samples the day's job arrival offsets: per sampling
// interval, a Poisson count sized so the realised demand w(t) is served
// by JobCores×JobDuration jobs, spread evenly inside the interval. The
// draw order matches what SimulateDay historically consumed, so a given
// seed keeps producing the same day.
func DayArrivals(cfg DayConfig) []time.Duration {
	series := Diurnal(cfg.Series)
	rng := simrand.New(cfg.Seed ^ 0xda71)
	step := cfg.Series.Step
	jobSec := cfg.JobDuration.Seconds()
	var out []time.Duration
	for i := 0; i < series.Len(); i++ {
		expectedJobs := series.Actual[i] * step.Seconds() / (float64(cfg.JobCores) * jobSec)
		jobs := poisson(rng, expectedJobs)
		for j := 0; j < jobs; j++ {
			out = append(out, time.Duration(i)*step+step*time.Duration(j)/time.Duration(jobs))
		}
	}
	return out
}

// SimulateDayTrace runs the fluid day model over an explicit arrival
// trace (offsets from the start of the day). Each arrival is mapped back
// to its sampling interval to read the provisioned fleet and realised
// concurrent load there.
func SimulateDayTrace(cfg DayConfig, arrivals []time.Duration) DayResult {
	series := Diurnal(cfg.Series)
	res := DayResult{Strategy: cfg.Strategy, PolicyK: cfg.PolicyK, WorstCase: cfg.StaticWorstCase}

	step := cfg.Series.Step
	jobSec := cfg.JobDuration.Seconds()
	var stretches []float64

	peak := 0
	for i := 0; i < series.Len(); i++ {
		if p := series.Provisioned(i, cfg.PolicyK); p > peak {
			peak = p
		}
	}
	provisionedAt := func(i int) int {
		if cfg.StaticWorstCase {
			return peak
		}
		return series.Provisioned(i, cfg.PolicyK)
	}
	for i := 0; i < series.Len(); i++ {
		res.VMBaseUSD += float64(provisionedAt(i)) * step.Hours() * cfg.VCPUPricePerHour
	}

	for _, at := range arrivals {
		i := int(at / step)
		if i < 0 {
			i = 0
		}
		if i >= series.Len() {
			i = series.Len() - 1
		}
		provisioned := provisionedAt(i)
		res.Jobs++
		// Instantaneous concurrent load at this job's arrival: the
		// series' w(t) is the realised demand (its deviation from m(t)
		// is exactly the uncertainty the k·σ headroom is sized for).
		concurrent := series.Actual[i]
		free := float64(provisioned) - concurrent
		if free < 0 {
			free = 0
		}
		shortfall := float64(cfg.JobCores) - free
		if shortfall < 0 {
			shortfall = 0
		}

		stretch := 1.0
		switch {
		case shortfall == 0:
			// Fully provisioned.
		case cfg.Strategy == StrategyQueue:
			// Run on the free cores only (degenerate: at least 1).
			cores := math.Max(1, free)
			stretch = float64(cfg.JobCores) / cores
		case cfg.Strategy == StrategyAutoscale:
			cores := math.Max(1, free)
			slowRate := cores / float64(cfg.JobCores)
			boot := cfg.VMBoot.Seconds()
			// Work done before the VMs arrive, remainder at full speed.
			workDone := boot * slowRate
			if workDone >= jobSec {
				stretch = (jobSec / slowRate) / jobSec
			} else {
				stretch = (boot + (jobSec - workDone)) / jobSec
			}
			billed := time.Duration(stretch * jobSec * float64(time.Second))
			if cfg.KeepProcured {
				if rem := time.Duration(series.Len())*step - at; rem > billed {
					billed = rem
				}
			}
			res.VMAutoscaleUSD += billing.VMCost(cfg.VCPUPricePerHour*shortfall, billed)
			res.AutoscaleVMHours += shortfall * billed.Hours()
		case cfg.Strategy == StrategyBridge:
			stretch = cfg.HybridSlowdown
			lambdaSecs := stretch * jobSec * shortfall
			res.LambdaUSD += lambdaSecs * cfg.LambdaMemGB * billing.LambdaGBSecondUSD
		}
		stretches = append(stretches, stretch)
		if stretch > cfg.SLOFactor {
			res.SLOViolations++
		}
	}

	if len(stretches) > 0 {
		sum := 0.0
		for _, s := range stretches {
			sum += s
		}
		res.MeanStretch = sum / float64(len(stretches))
		sort.Float64s(stretches)
		res.P99Stretch = Quantile(stretches, 0.99)
	}
	res.TotalUSD = res.VMBaseUSD + res.VMAutoscaleUSD + res.LambdaUSD
	return res
}

// CompareDayStrategies runs the paper's implied comparison: a conservative
// pure-VM policy (m+2σ), an aggressive pure-VM policy that queues, VM
// autoscaling, and SplitServe's lambda bridging on an aggressive policy.
func CompareDayStrategies(seed uint64) []DayResult {
	mk := func(s Strategy, k float64) DayResult {
		cfg := DefaultDayConfig(s, k)
		cfg.Seed = seed
		return SimulateDay(cfg)
	}
	worst := DefaultDayConfig(StrategyQueue, 2)
	worst.Seed = seed
	worst.StaticWorstCase = true
	return []DayResult{
		SimulateDay(worst),       // worst-case static provisioning
		mk(StrategyQueue, 2),     // conservative diurnal provisioning, no remedy
		mk(StrategyQueue, 0),     // aggressive provisioning, no remedy
		mk(StrategyAutoscale, 0), // aggressive + VM autoscaling
		mk(StrategyBridge, 0),    // max-aggressive + bridging (footnote 8: too far)
		mk(StrategyBridge, 1),    // moderately aggressive + SplitServe bridging
	}
}

// poisson draws a Poisson variate with the given mean (Knuth for small
// means, normal approximation above 30).
func poisson(rng *simrand.RNG, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := rng.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Quantile returns the q-quantile of an ascending-sorted slice: the
// element at index ceil(q·(n-1)), or the zero value of an empty slice.
// The day model, the cluster report and the shard report all use it.
func Quantile[T cmp.Ordered](sorted []T, q float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	return sorted[int(math.Ceil(q*float64(len(sorted)-1)))]
}
