package eventlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// TraceEvent is one entry of the Chrome trace-event format (the JSON
// chrome://tracing and Perfetto load). Every event carries the four fields
// Perfetto requires — ph, ts, pid, tid — unconditionally.
type TraceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	CName string         `json:"cname,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// TraceFile is the top-level Chrome trace JSON object.
type TraceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Reserved Catapult color names used to tell the substrates apart: VM task
// slices render green, Lambda slices orange, and cost-manager allocation
// decisions light blue (see OBSERVABILITY.md).
const (
	cnameVM       = "thread_state_running"
	cnameLambda   = "thread_state_iowait"
	cnameCostPick = "vsync_highlight_color"
)

// driverTID is the per-process track carrying job and stage slices; each
// executor gets its own tid from 1 up, in first-appearance order.
const driverTID = 0

// ChromeTrace converts an event stream to Chrome trace-event JSON: one
// process (pid) per app, one track (tid) per executor plus a "driver"
// track with job/stage slices, task slices colored by backend, and instant
// markers for segue, VM and Lambda lifecycle events. Open intervals (a
// task on a Lambda that drained mid-run, a stage cut short) are clamped to
// the last timestamp in the log so they still render.
func ChromeTrace(events []Event) ([]byte, error) {
	tf := BuildTrace(events)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(tf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// BuildTrace assembles the TraceFile (exposed separately so tests and the
// history server can inspect the structured form).
func BuildTrace(events []Event) *TraceFile {
	tf := &TraceFile{TraceEvents: []TraceEvent{}, DisplayTimeUnit: "ms"}

	var end int64
	for _, e := range events {
		if e.TS > end {
			end = e.TS
		}
	}

	pids := map[string]int{}
	pidOrder := []string{}
	pidOf := func(app string) int {
		if p, ok := pids[app]; ok {
			return p
		}
		p := len(pids) + 1
		pids[app] = p
		pidOrder = append(pidOrder, app)
		return p
	}
	type execKey struct {
		app  string
		exec string
	}
	tids := map[execKey]int{}
	tidKinds := map[execKey]string{}
	nextTID := map[string]int{}
	tidOf := func(app, exec, kind string) int {
		k := execKey{app, exec}
		if t, ok := tids[k]; ok {
			return t
		}
		nextTID[app]++
		tids[k] = nextTID[app]
		if kind != "" {
			tidKinds[k] = kind
		}
		return tids[k]
	}

	type openKey struct {
		app   string
		exec  string
		stage int
		task  int
	}
	// Open intervals map to the index of their start event, so whatever
	// is still open at the end is clamped in the order it opened.
	openTasks := map[openKey]int{}
	openStages := map[openKey]int{}
	openJobs := map[openKey]int{}
	openExecs := map[execKey]int{}

	var slices, instants []TraceEvent

	closeSlice := func(start Event, ts int64, name, cat string, pid, tid int, cname string, args map[string]any) {
		dur := ts - start.TS
		if dur < 1 {
			dur = 1 // zero-width slices vanish in the UI
		}
		slices = append(slices, TraceEvent{
			Name: name, Cat: cat, Ph: "X", TS: start.TS, Dur: dur,
			PID: pid, TID: tid, CName: cname, Args: args,
		})
	}

	instant := func(e Event, name string, pid, tid int, scope string, args map[string]any) {
		instants = append(instants, TraceEvent{
			Name: name, Cat: string(e.Type), Ph: "i", TS: e.TS,
			PID: pid, TID: tid, Scope: scope, Args: args,
		})
	}

	for i, e := range events {
		switch e.Type {
		case JobStart, ClusterAdmit:
			openJobs[openKey{app: e.App, task: -1, stage: -1}] = i
			pidOf(e.App)
		case JobEnd, ClusterFinish, ClusterFail:
			k := openKey{app: e.App, task: -1, stage: -1}
			if si, ok := openJobs[k]; ok {
				s := events[si]
				delete(openJobs, k)
				closeSlice(s, e.TS, "job "+s.Note, "job", pidOf(e.App), driverTID, "", map[string]any{"job": s.Note})
			}
		case StageStart:
			openStages[openKey{app: e.App, stage: e.Stage, task: -1}] = i
		case StageEnd:
			k := openKey{app: e.App, stage: e.Stage, task: -1}
			if si, ok := openStages[k]; ok {
				s := events[si]
				delete(openStages, k)
				closeSlice(s, e.TS, fmt.Sprintf("stage %d", e.Stage), "stage",
					pidOf(e.App), driverTID, "", map[string]any{"stage": e.Stage})
			}
		case TaskStart:
			openTasks[openKey{e.App, e.Exec, e.Stage, e.Task}] = i
		case TaskEnd, TaskFailed:
			k := openKey{e.App, e.Exec, e.Stage, e.Task}
			if si, ok := openTasks[k]; ok {
				s := events[si]
				delete(openTasks, k)
				cname := cnameVM
				if s.Kind == "lambda" {
					cname = cnameLambda
				}
				if e.Type == TaskFailed {
					cname = "terrible"
				}
				closeSlice(s, e.TS, fmt.Sprintf("s%d/t%d", e.Stage, e.Task), "task",
					pidOf(e.App), tidOf(e.App, e.Exec, s.Kind), cname,
					map[string]any{"stage": e.Stage, "task": e.Task, "kind": s.Kind})
			}
		case ExecutorAdd:
			openExecs[execKey{e.App, e.Exec}] = i
			tidOf(e.App, e.Exec, e.Kind)
		case ExecutorRemove:
			k := execKey{e.App, e.Exec}
			if si, ok := openExecs[k]; ok {
				s := events[si]
				delete(openExecs, k)
				closeSlice(s, e.TS, "executor "+e.Exec, "executor",
					pidOf(e.App), tidOf(e.App, e.Exec, s.Kind), "grey",
					map[string]any{"exec": e.Exec, "kind": s.Kind, "reason": e.Note})
			}
		case CostPick:
			// Allocation decisions get their own color so the chosen R
			// stands out on the driver track next to the arrival marker.
			instants = append(instants, TraceEvent{
				Name: fmt.Sprintf("cost_pick R=%d", e.Cores), Cat: string(e.Type),
				Ph: "i", TS: e.TS, PID: pidOf(e.App), TID: driverTID,
				Scope: "p", CName: cnameCostPick, Args: argsFor(e),
			})
		case ShardAssign, ShardSteal:
			// Shard placement decisions stay on the app's driver track —
			// Exec carries the tenant id, not an executor, so never open a
			// thread for it.
			instant(e, string(e.Type), pidOf(e.App), driverTID, "p", argsFor(e))
		case TenantReport:
			// Per-tenant rollups are control-plane scope: no app process.
			instant(e, string(e.Type), pidOf(e.App), driverTID, "g", argsFor(e))
		case Segue, ExecutorDrain, SegueCoreGrant, SLOViolate, ClusterArrive,
			StageResubmitted, TaskSpeculated, AutoscaleOrder,
			ClusterShed, ClusterDelay:
			tid := driverTID
			if e.Exec != "" {
				tid = tidOf(e.App, e.Exec, e.Kind)
			}
			instant(e, string(e.Type), pidOf(e.App), tid, "p", argsFor(e))
		case VMRequest, VMReady, LambdaInvoke, LambdaReady, LambdaRelease,
			CoreLease, CoreRelease, VMReleaseIdle, LambdaWarmHit, WarmpoolResize:
			// Control-plane events are global: they have no app process.
			instant(e, string(e.Type), pidOf(e.App), driverTID, "g", argsFor(e))
		case TmpCacheHit, TmpCacheEvict:
			// /tmp cache traffic renders like shuffle I/O, on the
			// environment's executor track when one is known.
			tid := driverTID
			if e.Exec != "" {
				tid = tidOf(e.App, e.Exec, "")
			}
			instant(e, fmt.Sprintf("%s %dB", e.Type, e.Bytes), pidOf(e.App), tid, "t", argsFor(e))
		case ShuffleRead, ShuffleWrite, HDFSRead, HDFSWrite:
			tid := driverTID
			if e.Exec != "" {
				tid = tidOf(e.App, e.Exec, "")
			}
			instant(e, fmt.Sprintf("%s %dB", e.Type, e.Bytes), pidOf(e.App), tid, "t", argsFor(e))
		}
	}

	// Clamp whatever is still open to the end of the log, each kind in
	// the order it opened: ties at one instant keep that order through the
	// stable sort below.
	for _, i := range openOrder(openTasks) {
		s := events[i]
		cname := cnameVM
		if s.Kind == "lambda" {
			cname = cnameLambda
		}
		closeSlice(s, end, fmt.Sprintf("s%d/t%d (open)", s.Stage, s.Task), "task",
			pidOf(s.App), tidOf(s.App, s.Exec, s.Kind), cname,
			map[string]any{"stage": s.Stage, "task": s.Task, "kind": s.Kind, "open": true})
	}
	for _, i := range openOrder(openStages) {
		s := events[i]
		closeSlice(s, end, fmt.Sprintf("stage %d (open)", s.Stage), "stage",
			pidOf(s.App), driverTID, "", map[string]any{"stage": s.Stage, "open": true})
	}
	for _, i := range openOrder(openJobs) {
		s := events[i]
		closeSlice(s, end, "job "+s.Note+" (open)", "job", pidOf(s.App), driverTID, "", nil)
	}
	for _, i := range openOrder(openExecs) {
		s := events[i]
		closeSlice(s, end, "executor "+s.Exec+" (open)", "executor",
			pidOf(s.App), tidOf(s.App, s.Exec, s.Kind), "grey", nil)
	}

	// Metadata: process and thread names, in deterministic (pid, tid) order.
	var meta []TraceEvent
	for _, app := range pidOrder {
		name := app
		if name == "" {
			name = "cloud"
		}
		meta = append(meta, TraceEvent{
			Name: "process_name", Ph: "M", TS: 0, PID: pids[app], TID: 0,
			Args: map[string]any{"name": name},
		})
		meta = append(meta, TraceEvent{
			Name: "thread_name", Ph: "M", TS: 0, PID: pids[app], TID: driverTID,
			Args: map[string]any{"name": "driver"},
		})
	}
	type tidEntry struct {
		key execKey
		tid int
	}
	var tes []tidEntry
	for k, t := range tids {
		tes = append(tes, tidEntry{k, t})
	}
	sort.Slice(tes, func(i, j int) bool {
		if pids[tes[i].key.app] != pids[tes[j].key.app] {
			return pids[tes[i].key.app] < pids[tes[j].key.app]
		}
		return tes[i].tid < tes[j].tid
	})
	for _, te := range tes {
		label := te.key.exec
		if kind := tidKinds[te.key]; kind != "" {
			label += " [" + kind + "]"
		}
		meta = append(meta, TraceEvent{
			Name: "thread_name", Ph: "M", TS: 0, PID: pids[te.key.app], TID: te.tid,
			Args: map[string]any{"name": label},
		})
	}

	// Slices sorted by (ts, pid, tid) keep Catapult's importer happy;
	// instants ride along after slices at equal timestamps.
	sort.SliceStable(slices, func(i, j int) bool { return traceLess(slices[i], slices[j]) })
	sort.SliceStable(instants, func(i, j int) bool { return traceLess(instants[i], instants[j]) })

	tf.TraceEvents = append(tf.TraceEvents, meta...)
	tf.TraceEvents = append(tf.TraceEvents, slices...)
	tf.TraceEvents = append(tf.TraceEvents, instants...)
	return tf
}

// openOrder returns the start-event indices of still-open intervals,
// ascending.
func openOrder[K comparable](open map[K]int) []int {
	idx := make([]int, 0, len(open))
	for _, i := range open {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

func traceLess(a, b TraceEvent) bool {
	if a.TS != b.TS {
		return a.TS < b.TS
	}
	if a.PID != b.PID {
		return a.PID < b.PID
	}
	if a.TID != b.TID {
		return a.TID < b.TID
	}
	return a.Dur > b.Dur // enclosing slice first
}

func argsFor(e Event) map[string]any {
	args := map[string]any{}
	if e.Exec != "" {
		args["exec"] = e.Exec
	}
	if e.Kind != "" {
		args["kind"] = e.Kind
	}
	if e.Stage >= 0 {
		args["stage"] = e.Stage
	}
	if e.Task >= 0 {
		args["task"] = e.Task
	}
	if e.Cores != 0 {
		args["cores"] = e.Cores
	}
	if e.Bytes != 0 {
		args["bytes"] = e.Bytes
	}
	if e.Note != "" {
		args["note"] = e.Note
	}
	if len(args) == 0 {
		return nil
	}
	return args
}
