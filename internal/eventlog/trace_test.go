package eventlog

import (
	"testing"
)

// traceCase describes how one event type must surface in a Chrome trace:
// feed `events` to BuildTrace and expect at least one non-metadata trace
// event with category `cat`. Slice-producing types (job/stage/task/
// executor lifecycles) map to their slice category; everything else is an
// instant whose category is the event type string itself.
type traceCase struct {
	events []Event
	cat    string
}

func tev(typ Type, ts int64) Event {
	e := Ev(typ)
	e.TS = ts
	e.App = "app-1"
	return e
}

func tevExec(typ Type, ts int64) Event {
	e := tev(typ, ts)
	e.Exec = "x0"
	e.Kind = "vm"
	return e
}

func tevTask(typ Type, ts int64) Event {
	e := tevExec(typ, ts)
	e.Stage = 0
	e.Task = 0
	return e
}

// traceVocabulary maps every event type in the closed vocabulary to a
// minimal log that renders it. TestTraceCoversVocabulary fails when a
// type added to AllTypes is missing here, which is the prompt to teach
// BuildTrace about it (and then this table) rather than letting the new
// type silently vanish from rendered traces.
func traceVocabulary() map[Type]traceCase {
	instant := func(typ Type) traceCase {
		return traceCase{events: []Event{tev(typ, 10)}, cat: string(typ)}
	}
	instantExec := func(typ Type) traceCase {
		return traceCase{events: []Event{tevExec(typ, 10)}, cat: string(typ)}
	}
	return map[Type]traceCase{
		// Engine lifecycle slices.
		JobStart: {events: []Event{tev(JobStart, 0)}, cat: "job"},
		JobEnd:   {events: []Event{tev(JobStart, 0), tev(JobEnd, 1000)}, cat: "job"},
		StageStart: {events: []Event{func() Event {
			e := tev(StageStart, 0)
			e.Stage = 0
			return e
		}()}, cat: "stage"},
		StageEnd: {events: []Event{func() Event {
			e := tev(StageStart, 0)
			e.Stage = 0
			return e
		}(), func() Event {
			e := tev(StageEnd, 1000)
			e.Stage = 0
			return e
		}()}, cat: "stage"},
		TaskStart:  {events: []Event{tevTask(TaskStart, 0)}, cat: "task"},
		TaskEnd:    {events: []Event{tevTask(TaskStart, 0), tevTask(TaskEnd, 1000)}, cat: "task"},
		TaskFailed: {events: []Event{tevTask(TaskStart, 0), tevTask(TaskFailed, 1000)}, cat: "task"},
		ExecutorAdd: {events: []Event{tevExec(ExecutorAdd, 0)},
			cat: "executor"},
		ExecutorRemove: {events: []Event{tevExec(ExecutorAdd, 0), tevExec(ExecutorRemove, 1000)},
			cat: "executor"},

		// Engine instants.
		TaskSpeculated:   instant(TaskSpeculated),
		StageResubmitted: instant(StageResubmitted),
		ExecutorDrain:    instantExec(ExecutorDrain),
		Segue:            instant(Segue),

		// Shuffle and HDFS traffic.
		ShuffleWrite: instantExec(ShuffleWrite),
		ShuffleRead:  instantExec(ShuffleRead),
		HDFSWrite:    instantExec(HDFSWrite),
		HDFSRead:     instantExec(HDFSRead),

		// Cloud control plane.
		VMRequest:     instant(VMRequest),
		VMReady:       instant(VMReady),
		LambdaInvoke:  instant(LambdaInvoke),
		LambdaReady:   instant(LambdaReady),
		LambdaRelease: instant(LambdaRelease),
		CoreLease:     instant(CoreLease),
		CoreRelease:   instant(CoreRelease),

		// Cluster scheduler. Admit opens the job slice; finish/fail close it.
		ClusterArrive: instant(ClusterArrive),
		ClusterAdmit:  {events: []Event{tev(ClusterAdmit, 0)}, cat: "job"},
		ClusterFinish: {events: []Event{tev(ClusterAdmit, 0), tev(ClusterFinish, 1000)}, cat: "job"},
		ClusterFail:   {events: []Event{tev(ClusterAdmit, 0), tev(ClusterFail, 1000)}, cat: "job"},
		SLOViolate:    instant(SLOViolate),
		SegueCoreGrant: {events: []Event{tevExec(SegueCoreGrant, 10)},
			cat: string(SegueCoreGrant)},
		AutoscaleOrder: instant(AutoscaleOrder),

		// Elasticity.
		VMReleaseIdle: instant(VMReleaseIdle),
		ClusterShed:   instant(ClusterShed),
		ClusterDelay:  instant(ClusterDelay),

		// Cost manager.
		CostPick: instant(CostPick),

		// Warm pool (PR 7's four types).
		LambdaWarmHit:  instant(LambdaWarmHit),
		TmpCacheHit:    instantExec(TmpCacheHit),
		TmpCacheEvict:  instantExec(TmpCacheEvict),
		WarmpoolResize: instant(WarmpoolResize),

		// Sharded control plane (PR 10's three types). Exec carries the
		// tenant id on all three; none of them may open an executor track.
		ShardAssign:  instantExec(ShardAssign),
		ShardSteal:   instantExec(ShardSteal),
		TenantReport: instantExec(TenantReport),
	}
}

// TestTraceCoversVocabulary walks the full closed vocabulary and asserts
// every type has a trace mapping that actually renders. Two failure
// modes, both deliberate: a type in AllTypes with no table entry (a new
// event type was added without deciding how it traces), and a table
// entry whose events produce no trace output (BuildTrace's switch does
// not handle it).
func TestTraceCoversVocabulary(t *testing.T) {
	vocab := traceVocabulary()
	for _, typ := range AllTypes() {
		tc, ok := vocab[typ]
		if !ok {
			t.Errorf("event type %q has no Chrome-trace mapping: add a case to BuildTrace and to traceVocabulary", typ)
			continue
		}
		tf := BuildTrace(tc.events)
		found := false
		for _, te := range tf.TraceEvents {
			if te.Ph == "M" {
				continue // metadata, not a rendering of the event
			}
			if te.Cat == tc.cat {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("event type %q: BuildTrace produced no trace event with cat %q (events: %+v)",
				typ, tc.cat, tc.events)
		}
	}
	// The table may not drift ahead of the vocabulary either.
	for typ := range vocab {
		if !typ.Valid() {
			t.Errorf("traceVocabulary lists unknown type %q", typ)
		}
	}
}

// TestAllTypesIsClosed pins the vocabulary size and the PR 7 warm-pool
// additions so an accidental constant deletion is caught as loudly as an
// unmapped addition.
func TestAllTypesIsClosed(t *testing.T) {
	all := AllTypes()
	seen := map[Type]bool{}
	for _, typ := range all {
		if seen[typ] {
			t.Errorf("AllTypes lists %q twice", typ)
		}
		seen[typ] = true
		if !typ.Valid() {
			t.Errorf("AllTypes lists %q but Valid rejects it", typ)
		}
	}
	for _, typ := range []Type{LambdaWarmHit, TmpCacheHit, TmpCacheEvict, WarmpoolResize} {
		if !seen[typ] {
			t.Errorf("warm-pool type %q missing from AllTypes", typ)
		}
	}
	for _, typ := range []Type{ShardAssign, ShardSteal, TenantReport} {
		if !seen[typ] {
			t.Errorf("shard type %q missing from AllTypes", typ)
		}
	}
	if got := len(all); got != 42 {
		t.Errorf("closed vocabulary has %d types, want 42 — update this pin alongside AllTypes and BuildTrace", got)
	}
}

// TestTraceClampsTiedOpenIntervalsInOrder: a log that ends with intervals
// still open, several of them starting at the same instant (a stalled or
// aborted job), must render the same bytes every time, the ties in the
// order they opened.
func TestTraceClampsTiedOpenIntervalsInOrder(t *testing.T) {
	events := []Event{tev(JobStart, 5)}
	for stage := 0; stage < 4; stage++ {
		e := tev(StageStart, 5)
		e.Stage = stage
		events = append(events, e)
	}
	first, err := ChromeTrace(events)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := ChromeTrace(events)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(first) {
			t.Fatalf("call %d rendered different bytes:\n%s\nfirst:\n%s", i+2, again, first)
		}
	}
	var stages []string
	for _, te := range BuildTrace(events).TraceEvents {
		if te.Cat == "stage" {
			stages = append(stages, te.Name)
		}
	}
	want := []string{"stage 0 (open)", "stage 1 (open)", "stage 2 (open)", "stage 3 (open)"}
	if len(stages) != len(want) {
		t.Fatalf("stage slices %q, want %q", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("stage slices %q, want %q", stages, want)
		}
	}
}
