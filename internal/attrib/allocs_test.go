package attrib_test

import (
	"fmt"
	"slices"
	"testing"

	"splitserve/internal/attrib"
	"splitserve/internal/eventlog"
)

// syntheticDay builds a cluster log of n overlapping jobs in time order.
// Each job queues, waits for a VM and a Lambda executor, runs a
// four-task map stage that writes shuffle output and a two-task reduce
// stage that reads it, releases its executors and finishes.
func syntheticDay(n int) []eventlog.Event {
	const sec = 1_000_000
	var events []eventlog.Event
	for i := 0; i < n; i++ {
		app := fmt.Sprintf("j%04d-synthetic", i)
		t0 := int64(i) * 5 * sec
		vm, lambda := fmt.Sprintf("j%04d-v00", i), fmt.Sprintf("j%04d-l00", i)
		add := func(typ eventlog.Type, ts int64, f func(*eventlog.Event)) {
			ev := eventlog.Ev(typ)
			ev.App, ev.TS = app, ts
			if f != nil {
				f(&ev)
			}
			events = append(events, ev)
		}
		task := func(typ eventlog.Type, ts int64, exec string, stage, task int) {
			add(typ, ts, func(e *eventlog.Event) { e.Exec, e.Stage, e.Task = exec, stage, task })
		}
		add(eventlog.ClusterArrive, t0, func(e *eventlog.Event) { e.Note, e.Cores = "synthetic", 4 })
		add(eventlog.ClusterAdmit, t0+sec, func(e *eventlog.Event) { e.Cores = 4 })
		add(eventlog.StageStart, t0+sec, func(e *eventlog.Event) { e.Stage = 0 })
		add(eventlog.ExecutorAdd, t0+2*sec, func(e *eventlog.Event) { e.Exec, e.Kind, e.Cores = vm, "vm", 2 })
		add(eventlog.ExecutorAdd, t0+3*sec, func(e *eventlog.Event) { e.Exec, e.Kind, e.Cores = lambda, "lambda", 2 })
		for k, exec := range []string{vm, vm, lambda, lambda} {
			start := t0 + int64(2+k)*sec
			task(eventlog.TaskStart, start, exec, 0, k)
			add(eventlog.ShuffleWrite, start+3*sec, func(e *eventlog.Event) { e.Exec, e.Stage, e.Task, e.Bytes = exec, 0, k, 64<<20 })
			task(eventlog.TaskEnd, start+4*sec, exec, 0, k)
		}
		add(eventlog.StageStart, t0+10*sec, func(e *eventlog.Event) { e.Stage = 1 })
		for k, exec := range []string{vm, lambda} {
			start := t0 + 10*sec
			task(eventlog.TaskStart, start, exec, 1, k)
			add(eventlog.ShuffleRead, start+sec, func(e *eventlog.Event) { e.Exec, e.Stage, e.Task, e.Bytes = exec, 1, k, 128<<20 })
			task(eventlog.TaskEnd, start+int64(3+k)*sec, exec, 1, k)
		}
		add(eventlog.ExecutorRemove, t0+15*sec, func(e *eventlog.Event) { e.Exec = vm })
		add(eventlog.ExecutorRemove, t0+15*sec, func(e *eventlog.Event) { e.Exec = lambda })
		add(eventlog.ClusterFinish, t0+16*sec, nil)
	}
	slices.SortStableFunc(events, func(a, b eventlog.Event) int { return int(a.TS - b.TS) })
	return events
}

// analyzeAllocsPerJob is the allocation budget of one attribution pass,
// per job: the job's path, its tenant table (one per job on an unsharded
// log) and the amortized growth of the maps keyed by app. The per-app
// executor and stage lists are carved from run-wide arrays and cost
// nothing per job. Measured: 2.08.
const analyzeAllocsPerJob = 3

// TestAnalyzeAllocsBounded holds an attribution pass over a 1,000-job
// log to a fixed number of allocations per job.
func TestAnalyzeAllocsBounded(t *testing.T) {
	const jobs = 1000
	events := syntheticDay(jobs)
	rep := attrib.Analyze(events)
	if len(rep.Jobs) != jobs {
		t.Fatalf("premise: attributed %d jobs, want %d", len(rep.Jobs), jobs)
	}
	for _, c := range []attrib.Cause{attrib.QueueWait, attrib.LambdaColdStart, attrib.ShuffleWrite, attrib.ShuffleFetch} {
		if rep.Totals.BlameUS.Get(c) == 0 {
			t.Errorf("premise: the log carries no %s blame", c)
		}
	}
	perJob := testing.AllocsPerRun(5, func() { attrib.Analyze(events) }) / jobs
	t.Logf("%.2f allocations per job", perJob)
	if perJob > analyzeAllocsPerJob {
		t.Errorf("Analyze allocates %.2f objects per job, budget %d", perJob, analyzeAllocsPerJob)
	}
}
