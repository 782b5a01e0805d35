package eventlog

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

var testOrigin = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func at(d time.Duration) time.Time { return testOrigin.Add(d) }

// fixture builds a small two-executor run with one injected straggler:
// stage 0 has four 1s tasks and one 5s task (task 4) on the lambda executor.
func fixture() *Bus {
	b := NewBus(testOrigin)
	emit := func(d time.Duration, e Event) { b.Emit(at(d), e) }

	ev := func(t Type, app string) Event {
		e := Ev(t)
		e.App = app
		return e
	}

	emit(0, ev(JobStart, "app-1"))
	e := ev(ExecutorAdd, "app-1")
	e.Exec, e.Kind, e.Cores = "vm-0", "vm", 2
	emit(0, e)
	e = ev(ExecutorAdd, "app-1")
	e.Exec, e.Kind, e.Cores = "lambda-0", "lambda", 2
	emit(100*time.Millisecond, e)

	e = ev(StageStart, "app-1")
	e.Stage = 0
	emit(200*time.Millisecond, e)

	type task struct {
		id    int
		exec  string
		kind  string
		start time.Duration
		dur   time.Duration
	}
	tasks := []task{
		{0, "vm-0", "vm", 200 * time.Millisecond, time.Second},
		{1, "vm-0", "vm", 200 * time.Millisecond, time.Second},
		{2, "lambda-0", "lambda", 200 * time.Millisecond, time.Second},
		{3, "vm-0", "vm", 1300 * time.Millisecond, time.Second},
		{4, "lambda-0", "lambda", 200 * time.Millisecond, 5 * time.Second}, // straggler
	}
	for _, t := range tasks {
		e = ev(TaskStart, "app-1")
		e.Stage, e.Task, e.Exec, e.Kind = 0, t.id, t.exec, t.kind
		emit(t.start, e)
	}
	for _, t := range tasks {
		e = ev(TaskEnd, "app-1")
		e.Stage, e.Task, e.Exec = 0, t.id, t.exec
		emit(t.start+t.dur, e)
	}

	e = ev(StageEnd, "app-1")
	e.Stage = 0
	emit(5200*time.Millisecond, e)
	e = ev(ExecutorDrain, "app-1")
	e.Exec = "lambda-0"
	emit(5300*time.Millisecond, e)
	e = ev(ExecutorRemove, "app-1")
	e.Exec, e.Kind = "lambda-0", "lambda"
	emit(5400*time.Millisecond, e)
	emit(5500*time.Millisecond, ev(JobEnd, "app-1"))
	return b
}

func TestJSONLRoundTrip(t *testing.T) {
	b := fixture()
	data, err := b.JSONL()
	if err != nil {
		t.Fatalf("JSONL: %v", err)
	}
	got, err := ReadJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	want := b.Events()
	if len(got) != len(want) {
		t.Fatalf("round trip length: got %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestJSONLDeterministic(t *testing.T) {
	a, err := fixture().JSONL()
	if err != nil {
		t.Fatal(err)
	}
	b, err := fixture().JSONL()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same fixture produced different JSONL bytes")
	}
}

func TestReadJSONLRejectsUnknownType(t *testing.T) {
	_, err := ReadJSONL(strings.NewReader(`{"ts_us":0,"type":"nope","stage":-1,"task":-1}` + "\n"))
	if err == nil {
		t.Fatal("expected error for unknown event type")
	}
}

func TestEmitPanicsOnUnknownType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBus(testOrigin).Emit(testOrigin, Event{Type: "bogus"})
}

func TestNilBusIsNoOp(t *testing.T) {
	var b *Bus
	b.Emit(testOrigin, Ev(JobStart))
	b.Subscribe(func(Event) {})
	if b.Len() != 0 || b.Events() != nil {
		t.Fatal("nil bus should be inert")
	}
	if err := b.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteJSONL: %v", err)
	}
}

func TestSubscribeSeesEvents(t *testing.T) {
	b := NewBus(testOrigin)
	var seen []Type
	b.Subscribe(func(e Event) { seen = append(seen, e.Type) })
	b.Emit(at(time.Second), Ev(JobStart))
	b.Emit(at(2*time.Second), Ev(JobEnd))
	if len(seen) != 2 || seen[0] != JobStart || seen[1] != JobEnd {
		t.Fatalf("subscriber saw %v", seen)
	}
	if evs := b.Events(); evs[0].TS != time.Second.Microseconds() {
		t.Fatalf("TS stamping: got %d", evs[0].TS)
	}
}

func TestDetachStopsOnlyThatSubscriber(t *testing.T) {
	b := NewBus(testOrigin)
	var first, second int
	detach := b.Subscribe(func(Event) { first++ })
	b.Subscribe(func(Event) { second++ })
	b.Emit(at(time.Second), Ev(JobStart))
	detach()
	detach() // idempotent
	b.Emit(at(2*time.Second), Ev(JobEnd))
	if first != 1 || second != 2 {
		t.Fatalf("after detach: first saw %d, second saw %d; want 1 and 2", first, second)
	}
	var nilBus *Bus
	nilBus.Subscribe(func(Event) {})() // a nil bus hands back a no-op detach
}

// TestChromeTraceSchema asserts the Perfetto-required fields — ph, ts,
// pid, tid — are present on every emitted trace event.
func TestChromeTraceSchema(t *testing.T) {
	data, err := ChromeTrace(fixture().Events())
	if err != nil {
		t.Fatalf("ChromeTrace: %v", err)
	}
	var raw struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(raw.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	for i, te := range raw.TraceEvents {
		for _, field := range []string{"ph", "ts", "pid", "tid"} {
			if _, ok := te[field]; !ok {
				t.Fatalf("trace event %d missing required field %q: %v", i, field, te)
			}
		}
	}
}

func TestChromeTraceTracksAndColors(t *testing.T) {
	tf := BuildTrace(fixture().Events())
	var vmSlice, lambdaSlice, procName, threadNames bool
	tidsSeen := map[int]bool{}
	for _, te := range tf.TraceEvents {
		switch {
		case te.Ph == "M" && te.Name == "process_name":
			procName = true
		case te.Ph == "M" && te.Name == "thread_name":
			threadNames = true
		case te.Ph == "X" && te.Cat == "task":
			tidsSeen[te.TID] = true
			if te.CName == cnameVM {
				vmSlice = true
			}
			if te.CName == cnameLambda {
				lambdaSlice = true
			}
		}
	}
	if !procName || !threadNames {
		t.Fatal("missing process/thread metadata")
	}
	if !vmSlice || !lambdaSlice {
		t.Fatalf("expected both vm and lambda colored slices (vm=%v lambda=%v)", vmSlice, lambdaSlice)
	}
	if len(tidsSeen) < 2 {
		t.Fatalf("expected one track per executor, saw tids %v", tidsSeen)
	}
}

func TestAnalyzeFindsInjectedStraggler(t *testing.T) {
	a := Analyze(fixture().Events(), 0)
	if len(a.Stages) != 1 {
		t.Fatalf("stages: got %d want 1", len(a.Stages))
	}
	s := a.Stages[0]
	if len(s.Tasks) != 5 {
		t.Fatalf("tasks: got %d want 5", len(s.Tasks))
	}
	if s.MedianUS != time.Second.Microseconds() {
		t.Fatalf("median: got %dµs want 1s", s.MedianUS)
	}
	if len(s.Stragglers) != 1 {
		t.Fatalf("stragglers: got %d want 1 (%+v)", len(s.Stragglers), s.Stragglers)
	}
	if got := s.Stragglers[0]; got.Task != 4 || got.Exec != "lambda-0" {
		t.Fatalf("wrong straggler: %+v", got)
	}
	if s.VMTasks != 3 || s.LambdaTask != 2 {
		t.Fatalf("backend split: vm=%d lambda=%d", s.VMTasks, s.LambdaTask)
	}
	out := a.String()
	for _, want := range []string{"stragglers", "lambda-0", "stage summary", "backend split"} {
		if !strings.Contains(out, want) {
			t.Fatalf("analysis text missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeExecutorUtilization(t *testing.T) {
	a := Analyze(fixture().Events(), 1.5)
	if len(a.Executors) != 2 {
		t.Fatalf("executors: got %d want 2", len(a.Executors))
	}
	for _, x := range a.Executors {
		if x.Util <= 0 || x.Util > 1.0001 {
			t.Fatalf("executor %s utilization out of range: %v", x.Exec, x.Util)
		}
	}
}

func TestQuantileUS(t *testing.T) {
	sorted := []int64{100, 200, 300, 400, 500}
	if got := quantileUS(sorted, 0.5); got != 300 {
		t.Fatalf("p50: got %d", got)
	}
	if got := quantileUS(sorted, 0); got != 100 {
		t.Fatalf("p0: got %d", got)
	}
	if got := quantileUS(sorted, 1); got != 500 {
		t.Fatalf("p100: got %d", got)
	}
	if got := quantileUS([]int64{42}, 0.99); got != 42 {
		t.Fatalf("single: got %d", got)
	}
	if got := quantileUS(nil, 0.5); got != 0 {
		t.Fatalf("empty: got %d", got)
	}
	// p25 of [100..500] = 200 exactly; p90 interpolates between 400 and 500.
	if got := quantileUS(sorted, 0.25); got != 200 {
		t.Fatalf("p25: got %d", got)
	}
	if got := quantileUS(sorted, 0.9); got != 460 {
		t.Fatalf("p90: got %d want 460", got)
	}
}
