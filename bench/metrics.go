package main

import "splitserve/internal/eventlog"

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names; TestMetricNamesMatchBenchmarkJSON keeps them in step.
type metricDef struct{ name, unit string }

// endToEnd are the user-visible metrics of an untraced run, each the
// median over the measured rounds.
var endToEnd = []metricDef{
	{"jobs_per_s", "1/s"},
	{"setup_s", "s"},
	{"export_s", "s"},
	{"heap_retained_mb", "MiB"},
}

// perLayer are the metrics of the traced round. README.md maps each to the
// end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"simclock.events_fired", "count"},
	{"simclock.cancelled", "count"},
	{"simclock.compactions", "count"},
	{"simclock.queue_high_water", "count"},
	{"simclock.step_calls", "count"},
	{"simclock.step_s", "s"},
	{"simclock.step_p50_us", "us"},
	{"simclock.step_p99_us", "us"},
	{"simclock.step_s.engine", "s"},
	{"simclock.step_s.shuffle", "s"},
	{"simclock.step_s.hdfs", "s"},
	{"simclock.step_s.cloud", "s"},
	{"simclock.step_s.warmpool", "s"},
	{"simclock.step_s.cluster", "s"},
	{"simclock.step_s.shard", "s"},
	{"simclock.step_s.silent", "s"},
	{"simclock.step_s.unattributed", "s"},

	{"cluster.pump_calls", "count"},
	{"cluster.pump_s", "s"},
	{"cluster.pump_p99_us", "us"},
	{"cluster.driver_self_s", "s"},
	{"cluster.finalize_s", "s"},
	{"cluster.new_s", "s"},
	{"cluster.baseline_s", "s"},
	{"cluster.baselines", "count"},
	{"cluster.report_json_s", "s"},
	{"cluster.yields", "count"},
	{"cluster.handoff_p99_us", "us"},
	{"cluster.runq_depth_mean", "count"},
	{"cluster.runq_depth_max", "count"},

	{"engine.jobs", "count"},
	{"engine.stages", "count"},
	{"engine.tasks", "count"},
	{"engine.tasks_failed", "count"},
	{"engine.tasks_speculated", "count"},
	{"engine.executors_added", "count"},

	{"shuffle.writes", "count"},
	{"shuffle.reads", "count"},
	{"shuffle.bytes_read", "B"},
	{"hdfs.writes", "count"},
	{"hdfs.reads", "count"},

	{"cloud.lambda_invokes", "count"},
	{"cloud.lambda_cold_frac", "ratio"},
	{"cloud.vm_requests", "count"},
	{"cloud.core_leases", "count"},
	{"warmpool.hit_ratio", "ratio"},
	{"warmpool.tmp_cache_hit_ratio", "ratio"},
	{"warmpool.tmp_cache_hit_bytes", "B"},

	{"shard.run_s", "s"},
	{"shard.steals", "count"},
	{"shard.events_merge_s", "s"},

	{"eventlog.events", "count"},
	{"eventlog.events_per_job", "events/job"},
	{"eventlog.jsonl_bytes", "B"},
	{"eventlog.jsonl_s", "s"},
	{"attrib.analyze_s", "s"},
	{"attrib.jobs", "count"},

	{"runtime.allocs_per_event", "allocs/event"},
	{"runtime.bytes_per_event", "B/event"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.heap_peak_mb", "MiB"},

	{"bench.trace_overhead", "ratio"},

	{"sim.makespan_s", "s"},
	{"sim.slo_attainment", "ratio"},
	{"sim.total_usd", "USD"},
	{"sim.queue_wait_p99_s", "s"},
}

// Step-split groups. A clock step's wall time goes to the subsystem of the
// first event it emitted, or to silent when it emitted none. Steps of the
// sharded manager, whose per-shard buses the benchmark cannot observe from
// outside, go to unattributed.
const (
	groupSilent       = "silent"
	groupUnattributed = "unattributed"
)

var stepGroupOf = map[eventlog.Type]string{
	eventlog.JobStart:         "engine",
	eventlog.JobEnd:           "engine",
	eventlog.StageStart:       "engine",
	eventlog.StageEnd:         "engine",
	eventlog.TaskStart:        "engine",
	eventlog.TaskEnd:          "engine",
	eventlog.TaskFailed:       "engine",
	eventlog.TaskSpeculated:   "engine",
	eventlog.StageResubmitted: "engine",
	eventlog.ExecutorAdd:      "engine",
	eventlog.ExecutorDrain:    "engine",
	eventlog.ExecutorRemove:   "engine",
	eventlog.Segue:            "engine",

	eventlog.ShuffleWrite: "shuffle",
	eventlog.ShuffleRead:  "shuffle",

	eventlog.HDFSWrite: "hdfs",
	eventlog.HDFSRead:  "hdfs",

	eventlog.VMRequest:     "cloud",
	eventlog.VMReady:       "cloud",
	eventlog.LambdaInvoke:  "cloud",
	eventlog.LambdaReady:   "cloud",
	eventlog.LambdaRelease: "cloud",
	eventlog.CoreLease:     "cloud",
	eventlog.CoreRelease:   "cloud",
	eventlog.VMReleaseIdle: "cloud",

	eventlog.LambdaWarmHit:  "warmpool",
	eventlog.TmpCacheHit:    "warmpool",
	eventlog.TmpCacheEvict:  "warmpool",
	eventlog.WarmpoolResize: "warmpool",

	eventlog.ClusterArrive:  "cluster",
	eventlog.ClusterAdmit:   "cluster",
	eventlog.ClusterFinish:  "cluster",
	eventlog.ClusterFail:    "cluster",
	eventlog.SLOViolate:     "cluster",
	eventlog.SegueCoreGrant: "cluster",
	eventlog.AutoscaleOrder: "cluster",
	eventlog.ClusterShed:    "cluster",
	eventlog.ClusterDelay:   "cluster",
	eventlog.CostPick:       "cluster",

	eventlog.ShardAssign:  "shard",
	eventlog.ShardSteal:   "shard",
	eventlog.TenantReport: "shard",
}
