package metrics

import (
	"strings"
	"testing"
	"time"

	"splitserve/internal/eventlog"
	"splitserve/internal/telemetry"
)

var t0 = time.Date(2020, 12, 7, 0, 0, 0, 0, time.UTC)

func at(d time.Duration) time.Time { return t0.Add(d) }

// testClock is a clock the test sets before each event.
type testClock struct{ now time.Time }

func (c *testClock) Now() time.Time { return c.now }

// feed is a View of app "app" attached to a fresh bus.
type feed struct {
	clock *testClock
	bus   *eventlog.Bus
	hub   *telemetry.Hub
	view  *View
}

func newFeed() *feed {
	clock := &testClock{now: t0}
	bus := eventlog.NewBus(t0)
	hub := telemetry.New(clock)
	return &feed{clock: clock, bus: bus, hub: hub, view: Attach(bus, clock, hub, "app")}
}

// emit puts e on the bus at offset d, the way the engine does: with the
// clock already at that instant.
func (f *feed) emit(d time.Duration, e eventlog.Event) {
	f.clock.now = at(d)
	f.bus.Emit(f.clock.now, e)
}

func taskEv(typ eventlog.Type, exec, kind string, stage, task int) eventlog.Event {
	return eventlog.Event{Type: typ, App: "app", Exec: exec, Kind: kind, Stage: stage, Task: task}
}

func execEv(typ eventlog.Type, exec, kind string) eventlog.Event {
	return eventlog.Event{Type: typ, App: "app", Exec: exec, Kind: kind, Stage: -1, Task: -1}
}

func stageEv(typ eventlog.Type, stage int) eventlog.Event {
	return eventlog.Event{Type: typ, App: "app", Stage: stage, Task: -1}
}

func instantEv(typ eventlog.Type) eventlog.Event {
	return eventlog.Event{Type: typ, App: "app", Stage: -1, Task: -1}
}

func TestTaskSpansPairing(t *testing.T) {
	f := newFeed()
	f.emit(1*time.Second, taskEv(eventlog.TaskStart, "e1", "vm", 0, 0))
	f.emit(2*time.Second, taskEv(eventlog.TaskStart, "e2", "lambda", 0, 1))
	f.emit(3*time.Second, taskEv(eventlog.TaskEnd, "e1", "vm", 0, 0))
	f.emit(5*time.Second, taskEv(eventlog.TaskFailed, "e2", "lambda", 0, 1))
	spans := f.view.TaskSpans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[0].Exec != "e1" || spans[0].End.Sub(spans[0].Start) != 2*time.Second {
		t.Fatalf("span 0 = %+v", spans[0])
	}
	if spans[1].ExecKind != "lambda" {
		t.Fatalf("span 1 kind = %q", spans[1].ExecKind)
	}
}

func TestTaskSpansUnmatchedStartEmitsOpenSpan(t *testing.T) {
	f := newFeed()
	f.emit(time.Second, taskEv(eventlog.TaskStart, "e1", "lambda", 0, 0))
	f.emit(9*time.Second, execEv(eventlog.ExecutorRemove, "e1", "lambda"))
	spans := f.view.TaskSpans()
	if len(spans) != 1 {
		t.Fatalf("spans = %+v", spans)
	}
	s := spans[0]
	if !s.Open {
		t.Fatalf("span not marked open: %+v", s)
	}
	if !s.End.Equal(at(9 * time.Second)) {
		t.Fatalf("open span not clamped to the latest event: %+v", s)
	}
	if s.Exec != "e1" || s.ExecKind != "lambda" {
		t.Fatalf("span identity lost: %+v", s)
	}
}

// TestSpansKeepClockNanoseconds: spans take their instants from the clock,
// not from the bus's microsecond ts_us.
func TestSpansKeepClockNanoseconds(t *testing.T) {
	f := newFeed()
	f.emit(1500*time.Nanosecond, taskEv(eventlog.TaskStart, "e1", "vm", 0, 0))
	f.emit(2999*time.Nanosecond, taskEv(eventlog.TaskEnd, "e1", "vm", 0, 0))
	spans := f.view.TaskSpans()
	if len(spans) != 1 || !spans[0].Start.Equal(at(1500)) || !spans[0].End.Equal(at(2999)) {
		t.Fatalf("spans = %+v, want [1.5µs, 2.999µs]", spans)
	}
}

func TestStageSpans(t *testing.T) {
	f := newFeed()
	f.emit(0, stageEv(eventlog.StageStart, 1))
	f.emit(time.Second, stageEv(eventlog.StageStart, 2))
	f.emit(3*time.Second, stageEv(eventlog.StageEnd, 2))
	f.emit(4*time.Second, stageEv(eventlog.StageEnd, 1))
	spans := f.view.StageSpans()
	if len(spans) != 2 {
		t.Fatalf("stage spans = %d", len(spans))
	}
	if spans[0].Stage != 1 || spans[1].Stage != 2 {
		t.Fatalf("order = %+v", spans)
	}
}

// TestViewBridgesOnlyItsAppUntilDetached: on a shared bus the View ignores
// the provider's app-less vm_request/vm_ready and every other app's events,
// bridges its own app's instants as timeline marks, and bridges nothing
// once detached.
func TestViewBridgesOnlyItsAppUntilDetached(t *testing.T) {
	f := newFeed()
	provider := eventlog.Ev(eventlog.VMRequest)
	f.emit(0, provider)
	provider.Type = eventlog.VMReady
	f.emit(time.Second, provider)
	other := taskEv(eventlog.TaskStart, "x1", "vm", 0, 0)
	other.App = "other"
	f.emit(time.Second, other)
	f.emit(2*time.Second, taskEv(eventlog.TaskStart, "e1", "vm", 0, 0))
	f.emit(3*time.Second, instantEv(eventlog.Segue))
	f.emit(4*time.Second, taskEv(eventlog.TaskEnd, "e1", "vm", 0, 0))

	spans := f.view.TaskSpans()
	if len(spans) != 1 || spans[0].Exec != "e1" {
		t.Fatalf("task spans = %+v, want only e1's", spans)
	}
	marks := f.hub.Tracer().Marks()
	if len(marks) != 1 || marks[0].Component != "timeline" || marks[0].Name != "segue_commence" || !marks[0].At.Equal(at(3*time.Second)) {
		t.Fatalf("marks = %+v, want one segue_commence at 3s", marks)
	}

	f.view.Detach()
	f.emit(5*time.Second, taskEv(eventlog.TaskStart, "e1", "vm", 0, 1))
	f.emit(6*time.Second, instantEv(eventlog.VMReady))
	if n := len(f.hub.Tracer().Spans()); n != 1 {
		t.Fatalf("detached view bridged events: %d spans, want 1", n)
	}
	if n := len(f.hub.Tracer().Marks()); n != 1 {
		t.Fatalf("detached view bridged events: %d marks, want 1", n)
	}
}

func TestRenderTimeline(t *testing.T) {
	f := newFeed()
	f.emit(0, execEv(eventlog.ExecutorAdd, "e1", "vm"))
	f.emit(0, execEv(eventlog.ExecutorAdd, "e2", "lambda"))
	f.emit(0, taskEv(eventlog.TaskStart, "e1", "vm", 0, 0))
	f.emit(10*time.Second, taskEv(eventlog.TaskEnd, "e1", "vm", 0, 0))
	f.emit(5*time.Second, instantEv(eventlog.Segue))
	out := f.view.RenderTimeline(40)
	if !strings.Contains(out, "e1 [vm]") || !strings.Contains(out, "e2 [lambda]") {
		t.Fatalf("missing rows:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatalf("no activity marks:\n%s", out)
	}
	if !strings.Contains(out, "|") {
		t.Fatalf("no segue mark:\n%s", out)
	}
}

func TestRenderTimelineHeaderTicks(t *testing.T) {
	f := newFeed()
	f.emit(0, execEv(eventlog.ExecutorAdd, "e1", "vm"))
	// Dense activity covering the whole row: the in-row segue marker can't
	// land on a '.', so only the header tick row can show it.
	f.emit(0, taskEv(eventlog.TaskStart, "e1", "vm", 0, 0))
	f.emit(10*time.Second, taskEv(eventlog.TaskEnd, "e1", "vm", 0, 0))
	f.emit(5*time.Second, instantEv(eventlog.Segue))
	ready := instantEv(eventlog.VMReady)
	ready.Note = "vm-1"
	f.emit(8*time.Second, ready)
	out := f.view.RenderTimeline(40)
	if !strings.Contains(out, "S") {
		t.Fatalf("header missing segue tick:\n%s", out)
	}
	if !strings.Contains(out, "V") {
		t.Fatalf("header missing vm-ready tick:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "e1 [vm]") && strings.Contains(line, "|") {
			t.Fatalf("segue drawn over dense row:\n%s", out)
		}
	}
}

func TestRenderTimelineEmpty(t *testing.T) {
	f := newFeed()
	if got := f.view.RenderTimeline(40); !strings.Contains(got, "no task activity") {
		t.Fatalf("empty render = %q", got)
	}
}

func TestRenderTimelineTinyWidthDefaults(t *testing.T) {
	f := newFeed()
	f.emit(0, execEv(eventlog.ExecutorAdd, "e1", "vm"))
	f.emit(0, taskEv(eventlog.TaskStart, "e1", "vm", 0, 0))
	f.emit(time.Second, taskEv(eventlog.TaskEnd, "e1", "vm", 0, 0))
	out := f.view.RenderTimeline(1) // clamps to 80
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header, tick row and one executor row:\n%s", out)
	}
	if row := lines[2]; len(row) != 22+1+80 {
		t.Fatalf("executor row is %d bytes, want 80 columns after the label:\n%s", len(row), out)
	}
}

func TestDuplicateRegistrationIgnored(t *testing.T) {
	f := newFeed()
	f.emit(0, execEv(eventlog.ExecutorAdd, "e1", "vm"))
	f.emit(1, execEv(eventlog.ExecutorAdd, "e1", "vm"))
	f.emit(0, taskEv(eventlog.TaskStart, "e1", "vm", 0, 0))
	f.emit(time.Second, taskEv(eventlog.TaskEnd, "e1", "vm", 0, 0))
	out := f.view.RenderTimeline(40)
	if strings.Count(out, "e1 [vm]") != 1 {
		t.Fatalf("duplicate rows:\n%s", out)
	}
}
