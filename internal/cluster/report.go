package cluster

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"splitserve/internal/autoscale"
	"splitserve/internal/billing"
	"splitserve/internal/cloud"
	"splitserve/internal/simclock"
	"splitserve/internal/telemetry"
)

// JobReport is one job's outcome. Durations are microseconds so the JSON
// is integer-exact and byte-stable across runs with the same seed.
type JobReport struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Workload string `json:"workload,omitempty"`
	// Tenant is the submitting tenant in multi-tenant runs (omitted for
	// untenanted streams, which keeps legacy reports byte-identical).
	Tenant string `json:"tenant,omitempty"`
	Cores  int    `json:"cores"`

	ArrivalUS   int64 `json:"arrival_us"`
	StartUS     int64 `json:"start_us"`
	EndUS       int64 `json:"end_us"`
	QueueWaitUS int64 `json:"queue_wait_us"`
	RunUS       int64 `json:"run_us"`
	DeadlineUS  int64 `json:"deadline_us"`

	Stretch     float64 `json:"stretch"`
	SLOViolated bool    `json:"slo_violated"`

	VMExecutors     int `json:"vm_executors"`
	LambdaExecutors int `json:"lambda_executors"`
	VMTasks         int `json:"vm_tasks"`
	LambdaTasks     int `json:"lambda_tasks"`

	CostUSD       float64 `json:"cost_usd"`
	CostVMUSD     float64 `json:"cost_vm_usd"`
	CostLambdaUSD float64 `json:"cost_lambda_usd"`

	Failed string `json:"failed,omitempty"`
	// Shed carries the admission policy's rejection reason; a shed job
	// never ran. Delayed marks jobs deadline admission held back at
	// least once before admitting (or shedding).
	Shed    string `json:"shed,omitempty"`
	Delayed bool   `json:"delayed,omitempty"`

	// Cost-manager fields (-cores auto): the allocation policy that
	// chose Cores, its predictions, and the signed relative errors
	// ((realized − predicted) / predicted) once the job completed.
	// Absent on fixed-cores jobs and on fallback picks (no prediction).
	AllocPolicy      string  `json:"alloc_policy,omitempty"`
	AllocSource      string  `json:"alloc_source,omitempty"`
	PredictedRunUS   int64   `json:"predicted_run_us,omitempty"`
	PredictedCostUSD float64 `json:"predicted_cost_usd,omitempty"`
	RunPredErr       float64 `json:"run_prediction_error,omitempty"`
	CostPredErr      float64 `json:"cost_prediction_error,omitempty"`
}

// Report is a whole cluster run.
type Report struct {
	Policy    string `json:"policy"`
	Strategy  string `json:"strategy"`
	Seed      uint64 `json:"seed"`
	PoolCores int    `json:"pool_cores"`
	// Admission and ScaleDownIdleUS echo the elasticity configuration the
	// run used, so a saved report is self-describing; Alloc echoes how
	// per-job core demands were chosen ("fixed" or a cost-manager policy).
	Admission       string `json:"admission"`
	ScaleDownIdleUS int64  `json:"scaledown_idle_us"`
	Alloc           string `json:"alloc"`

	Jobs          int `json:"jobs"`
	Completed     int `json:"completed"`
	Failed        int `json:"failed"`
	Shed          int `json:"shed"`
	Delayed       int `json:"delayed"`
	SLOViolations int `json:"slo_violations"`
	// SLOAttainment is the fraction of all submitted jobs that completed
	// within their deadline (failed and shed jobs count against it) — the
	// y-axis of the paper's cost-vs-SLO curve.
	SLOAttainment float64 `json:"slo_attainment"`

	MakespanUS      int64 `json:"makespan_us"`
	QueueWaitMeanUS int64 `json:"queue_wait_mean_us"`
	QueueWaitP50US  int64 `json:"queue_wait_p50_us"`
	QueueWaitP99US  int64 `json:"queue_wait_p99_us"`

	MeanStretch float64 `json:"mean_stretch"`
	P99Stretch  float64 `json:"p99_stretch"`

	// QueueWaitHist and StretchHist export the full per-job distributions
	// (not just the scalar quantiles above) so crosschecks can assert on
	// any quantile via HistogramSnapshot.Quantile.
	QueueWaitHist telemetry.HistogramSnapshot `json:"queue_wait_hist"`
	StretchHist   telemetry.HistogramSnapshot `json:"stretch_hist"`

	// CoreUtilization is VM-executor busy time over pool core-time;
	// LambdaShare is the Lambda fraction of all busy time.
	CoreUtilization float64 `json:"core_utilization"`
	LambdaShare     float64 `json:"lambda_share"`

	// VMHours is total billed instance-hours (base fleet for the
	// makespan, procured VMs for their uptime); the elasticity fields
	// below break out what idle-timeout scale-down saved against the
	// keep-forever counterfactual.
	VMHours             float64 `json:"vm_hours"`
	VMsReleasedIdle     int     `json:"vms_released_idle"`
	VMHoursSaved        float64 `json:"vm_hours_saved"`
	VMScaledownSavedUSD float64 `json:"vm_scaledown_saved_usd"`

	// Warm-pool substrate (WarmPool > 0): configuration echo, pool
	// effectiveness, and the provisioned-idle dollars — readiness you pay
	// for whether or not it is invoked — itemized separately from
	// invocation compute (LambdaUSD) and folded into TotalUSD.
	WarmPool          int   `json:"warm_pool,omitempty"`
	TmpCache          bool  `json:"tmp_cache,omitempty"`
	WarmHits          int   `json:"warm_hits,omitempty"`
	WarmMisses        int   `json:"warm_misses,omitempty"`
	WarmResizes       int   `json:"warm_resizes,omitempty"`
	WarmRecycled      int   `json:"warm_recycled,omitempty"`
	TmpCacheHits      int64 `json:"tmp_cache_hits,omitempty"`
	TmpCacheMisses    int64 `json:"tmp_cache_misses,omitempty"`
	TmpCacheHitBytes  int64 `json:"tmp_cache_hit_bytes,omitempty"`
	TmpCacheEvictions int64 `json:"tmp_cache_evictions,omitempty"`

	VMBaseUSD      float64 `json:"vm_base_usd"`
	VMAutoscaleUSD float64 `json:"vm_autoscale_usd"`
	LambdaUSD      float64 `json:"lambda_usd"`
	LambdaIdleUSD  float64 `json:"lambda_idle_usd,omitempty"`
	TotalUSD       float64 `json:"total_usd"`

	// Mean absolute relative prediction error of the cost manager over
	// completed jobs with profile-backed picks (zero when none ran with
	// -cores auto) — how observably wrong the offline curves were.
	PredictedJobs      int     `json:"predicted_jobs,omitempty"`
	MeanAbsRunPredErr  float64 `json:"mean_abs_run_prediction_error,omitempty"`
	MeanAbsCostPredErr float64 `json:"mean_abs_cost_prediction_error,omitempty"`

	JobReports []JobReport `json:"job_reports"`
}

func us(d time.Duration) int64 { return d.Microseconds() }

func (s *Scheduler) buildReport() *Report {
	r := &Report{
		Policy:          s.cfg.Policy.Name(),
		Strategy:        s.cfg.Strategy.String(),
		Seed:            s.cfg.Seed,
		PoolCores:       s.cfg.PoolCores,
		Admission:       s.cfg.Admission.String(),
		ScaleDownIdleUS: us(s.cfg.ScaleDownIdle),
		Alloc:           s.cfg.Alloc,

		QueueWaitHist: s.insts.queueWait.Snapshot(),
		StretchHist:   s.insts.stretch.Snapshot(),
	}
	end := simclock.Epoch
	var waits []time.Duration
	var stretches []float64
	var vmBusy, lambdaBusy time.Duration
	var runErrSum, costErrSum float64

	for _, j := range s.jobs {
		// A migrated job re-ran (and is reported) on the shard that stole
		// it; counting it here would double-report it in merged tables.
		if j.phase == jobMigrated {
			continue
		}
		r.Jobs++
		jr := JobReport{
			ID:        j.id,
			Name:      j.spec.Name,
			Tenant:    j.spec.Tenant,
			Cores:     j.spec.Cores,
			ArrivalUS: us(j.arrivalAt.Sub(simclock.Epoch)),
			Workload:  j.workload,
		}
		deadline := j.allowance(s.cfg.SLOFactor)
		jr.DeadlineUS = us(deadline)
		if !j.admittedAt.IsZero() {
			jr.StartUS = us(j.admittedAt.Sub(simclock.Epoch))
			jr.QueueWaitUS = us(j.admittedAt.Sub(j.arrivalAt))
		}
		if !j.finishedAt.IsZero() {
			jr.EndUS = us(j.finishedAt.Sub(simclock.Epoch))
			if !j.admittedAt.IsZero() {
				jr.RunUS = us(j.finishedAt.Sub(j.admittedAt))
			}
			if j.finishedAt.After(end) {
				end = j.finishedAt
			}
		}
		vm, la := j.workDist.VM, j.workDist.Lambda
		jr.VMExecutors, jr.VMTasks = vm.Executors, vm.Tasks
		jr.LambdaExecutors, jr.LambdaTasks = la.Executors, la.Tasks
		vmBusy += vm.Busy
		lambdaBusy += la.Busy
		jr.CostVMUSD, jr.CostLambdaUSD, jr.CostUSD = j.costVM, j.costLambda, j.costUSD

		if p := j.spec.Pick; p != nil {
			jr.AllocPolicy = p.Policy
			jr.AllocSource = p.Source
			jr.PredictedRunUS = p.PredictedRun.Microseconds()
			jr.PredictedCostUSD = p.PredictedCostUSD
		}
		jr.Delayed = j.delayed
		if j.delayed {
			r.Delayed++
		}
		switch {
		case j.phase == jobShed:
			jr.Shed = j.shedReason
			r.Shed++
		case j.err != nil:
			jr.Failed = j.err.Error()
			r.Failed++
		default:
			r.Completed++
			total := j.finishedAt.Sub(j.arrivalAt)
			jr.Stretch = float64(total) / float64(j.spec.Baseline)
			jr.SLOViolated = total > deadline
			if jr.SLOViolated {
				r.SLOViolations++
			}
			if !j.admittedAt.IsZero() {
				waits = append(waits, j.admittedAt.Sub(j.arrivalAt))
			}
			stretches = append(stretches, jr.Stretch)
			// Profile-backed picks: signed relative error of the offline
			// prediction against what actually happened (fallback picks
			// predicted nothing, so there is nothing to score).
			if jr.AllocSource == "profile" && jr.PredictedRunUS > 0 {
				jr.RunPredErr = float64(jr.RunUS-jr.PredictedRunUS) / float64(jr.PredictedRunUS)
				if jr.PredictedCostUSD > 0 {
					jr.CostPredErr = (jr.CostUSD - jr.PredictedCostUSD) / jr.PredictedCostUSD
				}
				r.PredictedJobs++
				runErrSum += abs(jr.RunPredErr)
				costErrSum += abs(jr.CostPredErr)
			}
		}
		r.LambdaUSD += jr.CostLambdaUSD
		r.JobReports = append(r.JobReports, jr)
	}

	makespan := end.Sub(simclock.Epoch)
	r.MakespanUS = us(makespan)
	if len(waits) > 0 {
		var sum time.Duration
		for _, w := range waits {
			sum += w
		}
		r.QueueWaitMeanUS = us(sum / time.Duration(len(waits)))
		sorted := append([]time.Duration(nil), waits...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		r.QueueWaitP50US = us(autoscale.Quantile(sorted, 0.50))
		r.QueueWaitP99US = us(autoscale.Quantile(sorted, 0.99))
	}
	if len(stretches) > 0 {
		sum := 0.0
		for _, v := range stretches {
			sum += v
		}
		r.MeanStretch = sum / float64(len(stretches))
		sorted := append([]float64(nil), stretches...)
		sort.Float64s(sorted)
		r.P99Stretch = autoscale.Quantile(sorted, 0.99)
	}

	// Capacity: base pool cores for the makespan, procured cores from
	// their ready instant. The base fleet is billed for the makespan,
	// procured VMs for their uptime — to the end of the run, or to their
	// idle-timeout release when scale-down terminated them early.
	capSeconds := 0.0
	for _, vm := range s.baseVMs {
		capSeconds += float64(vm.Type.VCPUs) * makespan.Seconds()
		r.VMBaseUSD += billing.VMCost(vm.Type.PricePerHour, makespan)
		r.VMHours += makespan.Hours()
	}
	for _, vm := range s.procured {
		upEnd := end
		if vm.State == cloud.VMTerminated && vm.EndedAt.Before(end) {
			upEnd = vm.EndedAt
			r.VMsReleasedIdle++
			r.VMHoursSaved += end.Sub(vm.EndedAt).Hours()
			r.VMScaledownSavedUSD += billing.VMSavings(
				vm.Type.PricePerHour, upEnd.Sub(vm.ReadyAt), end.Sub(vm.ReadyAt))
		}
		up := upEnd.Sub(vm.ReadyAt)
		if up < 0 {
			up = 0
		}
		capSeconds += float64(vm.Type.VCPUs) * up.Seconds()
		r.VMAutoscaleUSD += billing.VMCost(vm.Type.PricePerHour, up)
		r.VMHours += up.Hours()
	}
	if r.Jobs > 0 {
		r.SLOAttainment = float64(r.Completed-r.SLOViolations) / float64(r.Jobs)
	}
	if capSeconds > 0 {
		r.CoreUtilization = vmBusy.Seconds() / capSeconds
	}
	if total := vmBusy + lambdaBusy; total > 0 {
		r.LambdaShare = lambdaBusy.Seconds() / total.Seconds()
	}
	// Warm-pool substrate: effectiveness counters plus the idle-rate line
	// item, billed per environment over the run window (the makespan —
	// provisioned capacity costs money whether or not it is invoked).
	if s.warm != nil {
		r.WarmPool = s.cfg.WarmPool
		r.WarmHits = s.warm.WarmHits()
		r.WarmMisses = s.warm.Misses()
		r.WarmResizes = s.warm.Resizes()
		r.WarmRecycled = s.warm.Recycled()
		for _, e := range s.warm.IdleBreakdown(end) {
			r.LambdaIdleUSD += billing.LambdaIdleCost(lambdaMemoryMB, e.Idle)
		}
	}
	if s.tmpCache != nil {
		r.TmpCache = true
		r.TmpCacheHits = s.tmpCache.Hits()
		r.TmpCacheMisses = s.tmpCache.Misses()
		r.TmpCacheHitBytes = s.tmpCache.HitBytes()
		r.TmpCacheEvictions = s.tmpCache.Evictions()
	}
	r.TotalUSD = r.VMBaseUSD + r.VMAutoscaleUSD + r.LambdaUSD + r.LambdaIdleUSD
	if r.PredictedJobs > 0 {
		r.MeanAbsRunPredErr = runErrSum / float64(r.PredictedJobs)
		r.MeanAbsCostPredErr = costErrSum / float64(r.PredictedJobs)
	}
	return r
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// String renders a human summary table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: policy=%s strategy=%s pool=%d cores seed=%d admission=%s alloc=%s\n",
		r.Policy, r.Strategy, r.PoolCores, r.Seed, r.Admission, r.Alloc)
	fmt.Fprintf(&b, "jobs %d (completed %d, failed %d, shed %d, delayed %d), SLO violations %d, attainment %.1f%%\n",
		r.Jobs, r.Completed, r.Failed, r.Shed, r.Delayed, r.SLOViolations,
		100*r.SLOAttainment)
	fmt.Fprintf(&b, "makespan %s; queue wait mean %s p50 %s p99 %s\n",
		time.Duration(r.MakespanUS)*time.Microsecond,
		time.Duration(r.QueueWaitMeanUS)*time.Microsecond,
		time.Duration(r.QueueWaitP50US)*time.Microsecond,
		time.Duration(r.QueueWaitP99US)*time.Microsecond)
	fmt.Fprintf(&b, "stretch mean %.2fx p99 %.2fx; core util %.1f%%; lambda share %.1f%%\n",
		r.MeanStretch, r.P99Stretch, 100*r.CoreUtilization, 100*r.LambdaShare)
	if r.LambdaIdleUSD > 0 {
		fmt.Fprintf(&b, "cost $%.2f (base $%.2f + scale $%.2f + lambda $%.2f + lambda-idle $%.4f)\n",
			r.TotalUSD, r.VMBaseUSD, r.VMAutoscaleUSD, r.LambdaUSD, r.LambdaIdleUSD)
	} else {
		fmt.Fprintf(&b, "cost $%.2f (base $%.2f + scale $%.2f + lambda $%.2f)\n",
			r.TotalUSD, r.VMBaseUSD, r.VMAutoscaleUSD, r.LambdaUSD)
	}
	if r.WarmPool > 0 {
		fmt.Fprintf(&b, "warm-pool target %d: hits %d, misses %d, resizes %d, recycled %d, idle $%.4f\n",
			r.WarmPool, r.WarmHits, r.WarmMisses, r.WarmResizes, r.WarmRecycled, r.LambdaIdleUSD)
	}
	if r.TmpCache {
		fmt.Fprintf(&b, "tmp-cache: hits %d (%.1f MB), misses %d, evictions %d\n",
			r.TmpCacheHits, float64(r.TmpCacheHitBytes)/(1<<20), r.TmpCacheMisses, r.TmpCacheEvictions)
	}
	fmt.Fprintf(&b, "vm-hours %.3f; released idle %d, saved %.3f vm-h = $%.4f\n",
		r.VMHours, r.VMsReleasedIdle, r.VMHoursSaved, r.VMScaledownSavedUSD)
	if r.PredictedJobs > 0 {
		fmt.Fprintf(&b, "cost-manager predictions: %d jobs, mean |run err| %.1f%%, mean |cost err| %.1f%%\n",
			r.PredictedJobs, 100*r.MeanAbsRunPredErr, 100*r.MeanAbsCostPredErr)
	}
	fmt.Fprintf(&b, "%-4s %-20s %6s %10s %10s %8s %7s %5s %9s\n",
		"id", "name", "cores", "queued", "ran", "stretch", "slo", "vm/la", "cost")
	for _, j := range r.JobReports {
		status := "ok"
		if j.Shed != "" {
			status = "SHED"
		} else if j.Failed != "" {
			status = "FAIL"
		} else if j.SLOViolated {
			status = "VIOL"
		}
		fmt.Fprintf(&b, "%-4d %-20s %6d %10s %10s %7.2fx %7s %2d/%-2d %8.4f$\n",
			j.ID, j.Name, j.Cores,
			(time.Duration(j.QueueWaitUS) * time.Microsecond).Round(time.Millisecond).String(),
			(time.Duration(j.RunUS) * time.Microsecond).Round(time.Millisecond).String(),
			j.Stretch, status, j.VMExecutors, j.LambdaExecutors, j.CostUSD)
	}
	return b.String()
}

// WriteProm streams the scheduler's telemetry in Prometheus exposition
// format (cluster_, vmpool_, engine_ and cloud_ families).
func (s *Scheduler) WriteProm(w io.Writer) error { return s.hub.WritePrometheus(w) }
