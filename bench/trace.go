package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"runtime/metrics"
	"time"

	"splitserve/internal/eventlog"
	"splitserve/internal/perfstat"
	"splitserve/internal/simclock"
)

// span is one coarse phase of the traced round.
type span struct {
	name, parent string
	start        time.Time
	dur          time.Duration
}

// tracer keeps the traced round's coarse spans in memory until the run
// ends. Per-call Step and Pump timings are not spans: they go into
// histograms in layerRecorder.
type tracer struct {
	run   string // the workload run every span belongs to
	spans []span
}

func (t *tracer) span(name, parent string, start time.Time, dur time.Duration) {
	t.spans = append(t.spans, span{name, parent, start, dur})
}

func (t *tracer) call(name, parent string, c call) { t.span(name, parent, c.start, c.dur) }

// chromeTrace renders the spans as Chrome trace events, loadable in
// chrome://tracing or Perfetto.
func (t *tracer) chromeTrace() ([]byte, error) {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	var origin time.Time
	for _, s := range t.spans {
		if origin.IsZero() || s.start.Before(origin) {
			origin = s.start
		}
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{
			Name: s.name, Cat: "bench", Ph: "X",
			TS:  float64(s.start.Sub(origin).Nanoseconds()) / 1e3,
			Dur: float64(s.dur.Nanoseconds()) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]string{"run": t.run, "parent": s.parent},
		}
	}
	return json.MarshalIndent(map[string]any{"traceEvents": evs}, "", " ")
}

// traceSetup records the set-up calls into the program as spans.
func (s *sim) traceSetup(tr *tracer) {
	for _, c := range s.baselineCalls {
		tr.call("baseline", "setup", c)
	}
	tr.call("new", "setup", s.newCall)
}

// trace records the export calls as spans under one export span.
func (ex *exported) trace(tr *tracer) {
	tr.span("export", "", ex.reportJSON.start, ex.total())
	tr.call("report_json", "export", ex.reportJSON)
	tr.call("events", "export", ex.merge)
	tr.call("jsonl", "export", ex.jsonl)
	tr.call("attrib", "export", ex.analyze)
}

// durHist is a log-linear histogram of durations: 8 linear sub-buckets per
// power of two, so a quantile is off by at most 1/16 of its value, in
// constant memory and without allocating.
type durHist struct {
	n      uint64
	sum    time.Duration
	counts [64 * 8]uint64
}

func (h *durHist) add(d time.Duration) {
	h.n++
	h.sum += d
	h.counts[bucketOf(d)]++
}

func bucketOf(d time.Duration) int {
	v := uint64(max(d, 0))
	if v < 8 {
		return int(v)
	}
	oct := bits.Len64(v) - 1
	return oct*8 + int(v>>(oct-3)&7)
}

// bucketMid returns the midpoint of bucket i in nanoseconds.
func bucketMid(i int) float64 {
	if i < 8 {
		return float64(i)
	}
	oct, sub := i/8, i%8
	width := float64(uint64(1) << (oct - 3))
	return float64(8+sub)*width + width/2
}

// quantileUS returns the q-quantile in microseconds (0 when empty).
func (h *durHist) quantileUS(q float64) float64 {
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		seen += float64(c)
		if c > 0 && seen >= rank {
			return bucketMid(i) / 1e3
		}
	}
	return 0
}

// runtimeSample reads the Go runtime counters the runtime.* metrics are
// deltas of. The CPU classes are estimates the runtime refreshes at each
// GC cycle, so over a run of many cycles they are close, not exact.
var runtimeSample = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

const (
	rtAllocs = iota
	rtAllocBytes
	rtGCCPU
	rtTotalCPU
	rtIdleCPU
	rtHeapObjects
)

func readRuntime() [6]float64 {
	metrics.Read(runtimeSample)
	var out [6]float64
	for i, s := range runtimeSample {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// heapSampleEvery is how many drive-loop iterations pass between heap samples.
const heapSampleEvery = 1024

// layerRecorder collects the traced round's per-layer metrics.
type layerRecorder struct {
	prof *perfstat.Collector

	m        map[string]float64
	steps    durHist
	pumps    durHist
	split    map[string]time.Duration
	iter     uint64
	heapPeak float64
	rt0, rt1 [6]float64
}

func newLayerRecorder(prof *perfstat.Collector) *layerRecorder {
	l := &layerRecorder{prof: prof, m: map[string]float64{}, split: map[string]time.Duration{}}
	for _, d := range perLayer {
		l.m[d.name] = 0
	}
	return l
}

func (l *layerRecorder) begin() {
	l.rt0 = readRuntime()
	l.heapPeak = l.rt0[rtHeapObjects]
}

func (l *layerRecorder) end() { l.rt1 = readRuntime() }

// step records one Step call and the type of the first event it emitted
// ("" when it emitted none).
func (l *layerRecorder) step(d time.Duration, first eventlog.Type) error {
	group := groupSilent
	if first != "" {
		var ok bool
		if group, ok = stepGroupOf[first]; !ok {
			return fmt.Errorf("event type %q has no step-split group", first)
		}
	}
	l.addStep(d, group)
	return nil
}

func (l *layerRecorder) addStep(d time.Duration, group string) {
	l.steps.add(d)
	l.split[group] += d
	l.iter++
	if l.iter%heapSampleEvery == 0 {
		metrics.Read(runtimeSample[rtHeapObjects:])
		l.heapPeak = max(l.heapPeak, float64(runtimeSample[rtHeapObjects].Value.Uint64()))
	}
}

// ObserveStep implements simclock.StepObserver for the sharded manager,
// which drives the clock itself: its steps are timed by the clock's hook
// and cannot be split by subsystem from outside. The perfstat collector,
// whose observer this replaces, still sees every step.
func (l *layerRecorder) ObserveStep(wall time.Duration) {
	l.addStep(wall, groupUnattributed)
	l.prof.ObserveStep(wall)
}

func (s *sim) clock() *simclock.Clock {
	if s.mgr != nil {
		return s.mgr.Clock()
	}
	return s.sched.Clock()
}

// runTraced plays s to completion while timing every call into a layer
// from outside. A single scheduler is driven by hand with exactly the
// loop Scheduler.Run uses (Start, then Step and Pump until Done, then
// Finalize), so each Step and Pump call is timed on its own and each step
// is attributed to the subsystem of the first event it emitted. The
// sharded manager runs its own lockstep loop, so its steps are timed by
// the clock's step hook.
func (s *sim) runTraced(tr *tracer, lay *layerRecorder) (outcome, time.Duration, error) {
	if s.mgr != nil {
		s.mgr.Clock().SetStepObserver(lay)
		lay.begin()
		t0 := time.Now()
		rep, err := s.mgr.Run()
		run := time.Since(t0)
		lay.end()
		tr.span("run", "", t0, run)
		lay.m["shard.run_s"] = run.Seconds()
		return outcome{shard: rep}, run, err
	}

	sched, clock := s.sched, s.sched.Clock()
	var first eventlog.Type
	sched.Events().Subscribe(func(e eventlog.Event) {
		if first == "" {
			first = e.Type
		}
	})
	lay.begin()
	t0 := time.Now()
	if err := sched.Start(); err != nil {
		return outcome{}, 0, err
	}
	deadline := simclock.Epoch.Add(maxSimTime)
	for !sched.Done() && clock.Now().Before(deadline) {
		first = ""
		a := time.Now()
		fired := clock.Step()
		b := time.Now()
		if err := lay.step(b.Sub(a), first); err != nil {
			return outcome{}, 0, err
		}
		if !fired {
			break
		}
		c := time.Now()
		sched.Pump()
		lay.pumps.add(time.Since(c))
	}
	fin := time.Now()
	rep := sched.Finalize()
	end := time.Now()
	lay.end()
	tr.span("run", "", t0, end.Sub(t0))
	tr.span("finalize", "run", fin, end.Sub(fin))
	lay.m["cluster.finalize_s"] = end.Sub(fin).Seconds()
	return outcome{cluster: rep}, end.Sub(t0), nil
}

// finish computes the per-layer metrics of a traced round from the
// recorded timings, the program's exported counters, and the exported
// outputs.
func (l *layerRecorder) finish(s *sim, o outcome, ex *exported, run time.Duration) (map[string]float64, error) {
	m := l.m
	secs := func(d time.Duration) float64 { return d.Seconds() }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	clock := s.clock()
	fired := float64(clock.Fired())
	m["simclock.events_fired"] = fired
	m["simclock.cancelled"] = float64(clock.Cancelled())
	m["simclock.compactions"] = float64(clock.Compactions())
	m["simclock.queue_high_water"] = float64(clock.HeapHighWater())
	m["simclock.step_calls"] = float64(l.steps.n)
	m["simclock.step_s"] = secs(l.steps.sum)
	m["simclock.step_p50_us"] = l.steps.quantileUS(0.50)
	m["simclock.step_p99_us"] = l.steps.quantileUS(0.99)
	for group, d := range l.split {
		m["simclock.step_s."+group] = secs(d)
	}

	m["cluster.pump_calls"] = float64(l.pumps.n)
	m["cluster.pump_s"] = secs(l.pumps.sum)
	m["cluster.pump_p99_us"] = l.pumps.quantileUS(0.99)
	m["cluster.driver_self_s"] = secs(run - l.steps.sum - l.pumps.sum)
	var baseline time.Duration
	for _, c := range s.baselineCalls {
		baseline += c.dur
	}
	m["cluster.baseline_s"] = secs(baseline)
	m["cluster.baselines"] = float64(len(s.baselineCalls))
	m["cluster.new_s"] = secs(s.newCall.dur)
	m["cluster.report_json_s"] = secs(ex.reportJSON.dur)
	snap := l.prof.Snapshot()
	m["cluster.yields"] = float64(snap.Yields)
	m["cluster.handoff_p99_us"] = snap.HandoffWall.P99US
	m["cluster.runq_depth_mean"] = snap.RunQueue.Mean
	m["cluster.runq_depth_max"] = float64(snap.RunQueue.Max)

	count := map[eventlog.Type]float64{}
	var coldInvokes, shuffleBytes float64
	for _, e := range ex.events {
		count[e.Type]++
		switch {
		case e.Type == eventlog.LambdaInvoke && e.Kind == "cold":
			coldInvokes++
		case e.Type == eventlog.ShuffleRead:
			shuffleBytes += float64(e.Bytes)
		}
	}
	m["engine.jobs"] = count[eventlog.JobStart]
	m["engine.stages"] = count[eventlog.StageStart]
	m["engine.tasks"] = count[eventlog.TaskStart]
	m["engine.tasks_failed"] = count[eventlog.TaskFailed]
	m["engine.tasks_speculated"] = count[eventlog.TaskSpeculated]
	m["engine.executors_added"] = count[eventlog.ExecutorAdd]
	m["shuffle.writes"] = count[eventlog.ShuffleWrite]
	m["shuffle.reads"] = count[eventlog.ShuffleRead]
	m["shuffle.bytes_read"] = shuffleBytes
	m["hdfs.writes"] = count[eventlog.HDFSWrite]
	m["hdfs.reads"] = count[eventlog.HDFSRead]
	m["cloud.lambda_invokes"] = count[eventlog.LambdaInvoke]
	m["cloud.lambda_cold_frac"] = ratio(coldInvokes, count[eventlog.LambdaInvoke])
	m["cloud.vm_requests"] = count[eventlog.VMRequest]
	m["cloud.core_leases"] = count[eventlog.CoreLease]

	// Only the single-scheduler workloads configure a warm pool; the
	// sharded manager's are zero.
	if r := o.cluster; r != nil {
		m["warmpool.hit_ratio"] = ratio(float64(r.WarmHits), float64(r.WarmHits+r.WarmMisses))
		m["warmpool.tmp_cache_hit_ratio"] = ratio(float64(r.TmpCacheHits), float64(r.TmpCacheHits+r.TmpCacheMisses))
		m["warmpool.tmp_cache_hit_bytes"] = float64(r.TmpCacheHitBytes)
		m["sim.makespan_s"] = float64(r.MakespanUS) / 1e6
		m["sim.slo_attainment"] = r.SLOAttainment
		m["sim.total_usd"] = r.TotalUSD
		m["sim.queue_wait_p99_s"] = float64(r.QueueWaitP99US) / 1e6
	} else {
		r := o.shard
		m["shard.steals"] = float64(r.Steals)
		m["shard.events_merge_s"] = secs(ex.merge.dur)
		m["sim.makespan_s"] = float64(r.MakespanUS) / 1e6
		m["sim.slo_attainment"] = r.SLOAttainment
		m["sim.total_usd"] = r.TotalUSD
		m["sim.queue_wait_p99_s"] = float64(r.QueueWaitP99US) / 1e6
	}

	events := float64(len(ex.events))
	m["eventlog.events"] = events
	m["eventlog.events_per_job"] = ratio(events, float64(s.jobs))
	m["eventlog.jsonl_bytes"] = float64(ex.jsonlBytes)
	m["eventlog.jsonl_s"] = secs(ex.jsonl.dur)
	m["attrib.analyze_s"] = secs(ex.analyze.dur)
	m["attrib.jobs"] = float64(len(ex.attrib.Jobs))

	m["runtime.allocs_per_event"] = ratio(l.rt1[rtAllocs]-l.rt0[rtAllocs], fired)
	m["runtime.bytes_per_event"] = ratio(l.rt1[rtAllocBytes]-l.rt0[rtAllocBytes], fired)
	busy := (l.rt1[rtTotalCPU] - l.rt0[rtTotalCPU]) - (l.rt1[rtIdleCPU] - l.rt0[rtIdleCPU])
	m["runtime.gc_cpu_frac"] = ratio(l.rt1[rtGCCPU]-l.rt0[rtGCCPU], busy)
	m["runtime.heap_peak_mb"] = l.heapPeak / (1 << 20)

	if len(m) != len(perLayer) {
		return nil, fmt.Errorf("traced round recorded %d per-layer metrics, want %d", len(m), len(perLayer))
	}
	return m, nil
}
