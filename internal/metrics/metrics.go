// Package metrics is the span view of one engine's event stream: executor
// registrations, task and stage spans, segue commencement, and job
// boundaries. Figure 7 of the paper — per-scenario execution timelines with
// executor start markers and the segue instant — is rendered from it.
//
// The engine records each event once, on the eventlog bus. A View
// subscribes to that bus and rebuilds the events of one app as spans and
// marks in a telemetry tracer; TaskSpans/StageSpans/RenderTimeline read the
// tracer back. Only single-job runs attach a View, because only their
// outputs (-report json, Figure 7) export spans.
package metrics

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"splitserve/internal/eventlog"
	"splitserve/internal/telemetry"
)

// View bridges one app's engine events into a tracer's spans and marks.
type View struct {
	clock  telemetry.Clock
	tr     *telemetry.Tracer
	app    string
	start  time.Time
	end    time.Time // latest bridged event instant, for clamping open spans
	detach func()

	openTasks  map[taskKey]*telemetry.Span
	openStages map[int]*telemetry.Span
	openJobs   map[string]*telemetry.Span
	openExecs  map[string]*telemetry.Span
	openDrains map[string]*telemetry.Span
}

type taskKey struct {
	exec  string
	stage int
	task  int
}

// Attach subscribes a View to bus that bridges the events of app into
// hub's tracer, stamped with clock's instants. Timeline offsets are
// measured from clock's current instant. Call Detach when the run ends.
func Attach(bus *eventlog.Bus, clock telemetry.Clock, hub *telemetry.Hub, app string) *View {
	v := &View{
		clock:      clock,
		tr:         hub.Tracer(),
		app:        app,
		start:      clock.Now(),
		end:        clock.Now(),
		openTasks:  make(map[taskKey]*telemetry.Span),
		openStages: make(map[int]*telemetry.Span),
		openJobs:   make(map[string]*telemetry.Span),
		openExecs:  make(map[string]*telemetry.Span),
		openDrains: make(map[string]*telemetry.Span),
	}
	v.detach = bus.Subscribe(v.bridge)
	return v
}

// Detach stops the View bridging events; its spans stay readable.
func (v *View) Detach() { v.detach() }

// markNames are the timeline mark names of the instant engine events.
var markNames = map[eventlog.Type]string{
	eventlog.Segue:            "segue_commence",
	eventlog.VMRequest:        "vm_requested",
	eventlog.VMReady:          "vm_ready",
	eventlog.StageResubmitted: "stage_resubmitted",
}

// bridge translates one engine event of the View's app into tracer spans
// and marks. The provider's own vm_request/vm_ready carry no app, and
// shuffle, HDFS and cluster events fall through the switch.
func (v *View) bridge(e eventlog.Event) {
	if e.App != v.app {
		return
	}
	now := v.clock.Now()
	switch e.Type {
	case eventlog.JobStart:
		v.openJobs[e.Note] = v.tr.StartSpanAt(now, "job", "run", telemetry.L("job", e.Note))
	case eventlog.JobEnd:
		if s, ok := v.openJobs[e.Note]; ok {
			s.EndAt(now)
			delete(v.openJobs, e.Note)
		}
	case eventlog.StageStart:
		v.openStages[e.Stage] = v.tr.StartSpanAt(now, "stage", "run",
			telemetry.L("stage", strconv.Itoa(e.Stage)))
	case eventlog.StageEnd:
		if s, ok := v.openStages[e.Stage]; ok {
			s.EndAt(now)
			delete(v.openStages, e.Stage)
		}
	case eventlog.TaskStart:
		v.openTasks[taskKey{e.Exec, e.Stage, e.Task}] = v.tr.StartSpanAt(now, "task", "run",
			telemetry.L("exec", e.Exec),
			telemetry.L("kind", e.Kind),
			telemetry.L("stage", strconv.Itoa(e.Stage)),
			telemetry.L("task", strconv.Itoa(e.Task)))
	case eventlog.TaskEnd, eventlog.TaskFailed:
		k := taskKey{e.Exec, e.Stage, e.Task}
		if s, ok := v.openTasks[k]; ok {
			s.EndAt(now)
			delete(v.openTasks, k)
		}
	case eventlog.ExecutorAdd:
		v.openExecs[e.Exec] = v.tr.StartSpanAt(now, "executor", "lifetime",
			telemetry.L("exec", e.Exec), telemetry.L("kind", e.Kind))
	case eventlog.ExecutorDrain:
		v.openDrains[e.Exec] = v.tr.StartSpanAt(now, "executor", "drain",
			telemetry.L("exec", e.Exec), telemetry.L("kind", e.Kind))
	case eventlog.ExecutorRemove:
		if s, ok := v.openDrains[e.Exec]; ok {
			s.EndAt(now)
			delete(v.openDrains, e.Exec)
		}
		if s, ok := v.openExecs[e.Exec]; ok {
			s.EndAt(now)
			delete(v.openExecs, e.Exec)
		}
	default:
		name, ok := markNames[e.Type]
		if !ok {
			return
		}
		attrs := make([]telemetry.Label, 0, 3)
		if e.Exec != "" {
			attrs = append(attrs, telemetry.L("exec", e.Exec))
		}
		if e.Stage >= 0 {
			attrs = append(attrs, telemetry.L("stage", strconv.Itoa(e.Stage)))
		}
		if e.Task >= 0 {
			attrs = append(attrs, telemetry.L("task", strconv.Itoa(e.Task)))
		}
		v.tr.MarkAt(now, "timeline", name, attrs...)
	}
	if now.After(v.end) {
		v.end = now
	}
}

// Span is one task execution on one executor. Open marks a task that
// started but never finished (e.g. its Lambda drained mid-run); its End
// is clamped to the latest bridged event.
type Span struct {
	Exec     string
	ExecKind string
	Stage    int
	Task     int
	Start    time.Time
	End      time.Time
	Open     bool
}

// TaskSpans projects the tracer's task spans, ordered by start time then
// executor. Tasks with a task_start but no matching end are emitted as
// open spans clamped to the latest bridged event, so drained-Lambda tasks
// still render.
func (v *View) TaskSpans() []Span {
	var spans []Span
	for _, s := range v.tr.Spans() {
		if s.Component != "task" || s.Name != "run" {
			continue
		}
		stage, _ := strconv.Atoi(s.Attr("stage"))
		task, _ := strconv.Atoi(s.Attr("task"))
		sp := Span{
			Exec:     s.Attr("exec"),
			ExecKind: s.Attr("kind"),
			Stage:    stage,
			Task:     task,
			Start:    s.Start,
		}
		if s.Open {
			sp.End = v.end
			sp.Open = true
		} else {
			sp.End = s.Finish
		}
		spans = append(spans, sp)
	}
	sort.Slice(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].Exec < spans[j].Exec
	})
	return spans
}

// StageSpan is one stage's (start, end) interval.
type StageSpan struct {
	Stage int
	Start time.Time
	End   time.Time
}

// StageSpans projects the tracer's completed stage spans.
func (v *View) StageSpans() []StageSpan {
	var out []StageSpan
	for _, s := range v.tr.Spans() {
		if s.Component != "stage" || s.Name != "run" || s.Open {
			continue
		}
		stage, _ := strconv.Atoi(s.Attr("stage"))
		out = append(out, StageSpan{Stage: stage, Start: s.Start, End: s.Finish})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// RenderTimeline draws an ASCII per-executor timeline of task activity
// (Figure 7 style): one row per executor, '#' where a task is running,
// '|' at segue commencement, executor rows ordered by registration. A
// header tick row marks segue ('S') and VM-ready ('V') columns
// unconditionally, so those instants stay visible even when every
// executor row is dense with task activity.
func (v *View) RenderTimeline(width int) string {
	if width <= 10 {
		width = 80
	}
	spans := v.TaskSpans()
	if len(spans) == 0 {
		return "(no task activity)\n"
	}
	end := v.start
	for _, s := range spans {
		if s.End.After(end) {
			end = s.End
		}
	}
	total := end.Sub(v.start)
	if total <= 0 {
		return "(zero-length timeline)\n"
	}
	col := func(t time.Time) int {
		c := int(float64(t.Sub(v.start)) / float64(total) * float64(width-1))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}

	var execs []string
	seen := map[string]string{}
	for _, s := range v.tr.Spans() {
		if s.Component != "executor" || s.Name != "lifetime" {
			continue
		}
		id := s.Attr("exec")
		if _, dup := seen[id]; !dup {
			seen[id] = s.Attr("kind")
			execs = append(execs, id)
		}
	}
	rows := make(map[string][]byte, len(execs))
	for _, id := range execs {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		rows[id] = row
	}
	for _, s := range spans {
		row, ok := rows[s.Exec]
		if !ok {
			continue
		}
		a, b := col(s.Start), col(s.End)
		for i := a; i <= b; i++ {
			row[i] = '#'
		}
	}
	tick := make([]byte, width)
	for i := range tick {
		tick[i] = ' '
	}
	marks := v.tr.Marks()
	for _, m := range marks {
		if m.Component != "timeline" || m.Name != markNames[eventlog.Segue] {
			continue
		}
		c := col(m.At)
		tick[c] = 'S'
		for _, row := range rows {
			if row[c] == '.' {
				row[c] = '|'
			}
		}
	}
	for _, m := range marks {
		if m.Component != "timeline" || m.Name != markNames[eventlog.VMReady] {
			continue
		}
		if c := col(m.At); tick[c] == ' ' {
			tick[c] = 'V'
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline 0s .. %.1fs  ('#'=task running, '|'=segue; header: S=segue, V=vm-ready)\n", total.Seconds())
	fmt.Fprintf(&b, "%-22s %s\n", "", tick)
	for _, id := range execs {
		fmt.Fprintf(&b, "%-22s %s\n", id+" ["+seen[id]+"]", rows[id])
	}
	return b.String()
}
