package engine

import (
	"strconv"
	"sync"

	"splitserve/internal/telemetry"
)

// kindNames indexes instrument handles by executor substrate.
var kindNames = [2]string{"vm", "lambda"}

func kindIdx(k ExecKind) int {
	if k == ExecLambda {
		return 1
	}
	return 0
}

// engineInstruments holds the engine's resolved telemetry handles. Every
// engine on a hub shares one set (instrumentsFor), resolved when the
// first of them is built, so neither a new engine nor the scheduler hot
// path touches the registry. On a nil hub every handle is nil and each
// operation is a no-op.
type engineInstruments struct {
	hub *telemetry.Hub

	tasksStarted  [2]*telemetry.Counter
	tasksFinished [2]*telemetry.Counter
	tasksFailed   [2]*telemetry.Counter
	taskRetries   *telemetry.Counter
	fetchFailures *telemetry.Counter
	queueWait     *telemetry.Histogram
	pendingTasks  *telemetry.Gauge

	execLive  [2]*telemetry.Gauge
	execDrain [2]*telemetry.Histogram

	shuffleWritten [2]*telemetry.Counter
	shuffleRead    [2]*telemetry.Counter
	blocksWritten  *telemetry.Counter
	fetchLatency   [2]*telemetry.Histogram

	scaleUp     *telemetry.Counter
	scaleDown   *telemetry.Counter
	targetExecs *telemetry.Gauge

	// schedLatency is the per-stage scheduling-latency histogram family,
	// indexed by stage ID and resolved as stages first schedule a task.
	// Engines sharing the set may run on different goroutines, so mu
	// guards it.
	mu           sync.Mutex
	schedLatency []*telemetry.Histogram
}

var instrumentsKey telemetry.MemoKey

// untelemetered is the set of every engine without a hub: all handles
// nil, so it is never written and engines can share it.
var untelemetered = &engineInstruments{}

// instrumentsFor returns the instrument set shared by every engine on h.
func instrumentsFor(h *telemetry.Hub) *engineInstruments {
	if h == nil {
		return untelemetered
	}
	return telemetry.Memo(h, &instrumentsKey, newEngineInstruments)
}

func newEngineInstruments(h *telemetry.Hub) *engineInstruments {
	m := &engineInstruments{hub: h}
	for i, kn := range kindNames {
		kl := telemetry.L("kind", kn)
		m.tasksStarted[i] = h.Counter("engine_tasks_started_total", kl)
		m.tasksFinished[i] = h.Counter("engine_tasks_finished_total", kl)
		m.tasksFailed[i] = h.Counter("engine_tasks_failed_total", kl)
		m.execLive[i] = h.Gauge("engine_executors_live", kl)
		m.execDrain[i] = h.Histogram("engine_executor_drain_seconds", nil, kl)
		m.shuffleWritten[i] = h.Counter("shuffle_bytes_written_total", kl)
		m.shuffleRead[i] = h.Counter("shuffle_bytes_read_total", kl)
		m.fetchLatency[i] = h.Histogram("shuffle_fetch_seconds", nil, kl)
	}
	m.taskRetries = h.Counter("engine_task_retries_total")
	// The engine does not speculate, so this counter stays 0; it is
	// registered because the pinned reports list it.
	h.Counter("engine_tasks_speculated_total")
	m.fetchFailures = h.Counter("engine_fetch_failures_total")
	m.queueWait = h.Histogram("engine_task_queue_wait_seconds", nil)
	m.pendingTasks = h.Gauge("engine_pending_tasks")
	m.blocksWritten = h.Counter("shuffle_blocks_written_total")
	m.scaleUp = h.Counter("autoscale_scale_up_total")
	m.scaleDown = h.Counter("autoscale_scale_down_total")
	m.targetExecs = h.Gauge("autoscale_target_executors")
	return m
}

// stageLatency resolves the scheduling-latency histogram for one stage.
func (m *engineInstruments) stageLatency(stage int) *telemetry.Histogram {
	if m.hub == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if stage < len(m.schedLatency) {
		if hst := m.schedLatency[stage]; hst != nil {
			return hst
		}
	} else {
		m.schedLatency = append(m.schedLatency, make([]*telemetry.Histogram, stage+1-len(m.schedLatency))...)
	}
	hst := m.hub.Histogram("engine_sched_latency_seconds", nil,
		telemetry.L("stage", strconv.Itoa(stage)))
	m.schedLatency[stage] = hst
	return hst
}
