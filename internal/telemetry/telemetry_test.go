package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func testClock(at time.Time) Clock { return &steppingClock{now: at} }

var origin = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := New(testClock(origin)).Histogram("h", []float64{1, 2.5, 5})

	// Upper bounds are inclusive (Prometheus "le" semantics): a value
	// exactly on a bound lands in that bound's bucket.
	cases := []struct {
		v    float64
		want int // bucket index; 3 = +Inf
	}{
		{0.5, 0}, {1, 0}, {1.0000001, 1}, {2.5, 1}, {2.6, 2}, {5, 2},
		{5.0001, 3}, {1e9, 3},
	}
	for i, c := range cases {
		before := h.BucketCounts()
		h.Observe(c.v)
		after := h.BucketCounts()
		for b := range after {
			delta := after[b] - before[b]
			if b == c.want && delta != 1 {
				t.Errorf("case %d: Observe(%v) did not land in bucket %d", i, c.v, c.want)
			}
			if b != c.want && delta != 0 {
				t.Errorf("case %d: Observe(%v) incremented bucket %d, want %d", i, c.v, b, c.want)
			}
		}
	}
	if got, want := h.Count(), uint64(len(cases)); got != want {
		t.Errorf("Count() = %d, want %d", got, want)
	}
}

func TestHistogramRejectsNonIncreasingBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Histogram with non-increasing bounds did not panic")
		}
	}()
	New(testClock(origin)).Histogram("bad", []float64{1, 1})
}

func TestHistogramDefaultBuckets(t *testing.T) {
	h := New(testClock(origin)).Histogram("def", nil)
	if got, want := len(h.Bounds()), len(DefBuckets); got != want {
		t.Fatalf("default bounds: got %d, want %d", got, want)
	}
	h.ObserveDuration(3 * time.Millisecond) // 0.003 s → le=0.005 bucket
	counts := h.BucketCounts()
	if counts[2] != 1 { // DefBuckets[2] == 0.005
		t.Errorf("3 ms landed in %v, want bucket le=0.005", counts)
	}
}

func TestConcurrentCounterIncrements(t *testing.T) {
	hub := New(testClock(origin))
	c := hub.Counter("concurrent_total")
	g := hub.Gauge("concurrent_gauge")
	h := hub.Histogram("concurrent_hist", []float64{1})

	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()

	if got, want := c.Value(), float64(workers*perWorker); got != want {
		t.Errorf("counter = %v, want %v", got, want)
	}
	if got, want := g.Value(), float64(workers*perWorker); got != want {
		t.Errorf("gauge = %v, want %v", got, want)
	}
	if got, want := h.Count(), uint64(workers*perWorker); got != want {
		t.Errorf("histogram count = %v, want %v", got, want)
	}
}

func TestCounterIgnoresNegativeDeltas(t *testing.T) {
	c := New(testClock(origin)).Counter("mono")
	c.Add(2)
	c.Add(-5)
	c.Add(0)
	if got := c.Value(); got != 2 {
		t.Errorf("counter = %v, want 2 (negative and zero deltas ignored)", got)
	}
}

func TestNilHubIsNoOp(t *testing.T) {
	var hub *Hub
	hub.Counter("x").Inc()
	hub.Gauge("y").Set(3)
	hub.Histogram("z", nil).Observe(1)
	rep := hub.Report()
	if len(rep.Counters) != 0 || len(rep.Spans) != 0 {
		t.Error("nil hub produced a non-empty report")
	}
}

func TestUntracedHubKeepsMetricsOnly(t *testing.T) {
	hub := NewUntraced()
	hub.Counter("x").Inc()
	hub.Tracer().StartSpan("c", "s").End()
	hub.Tracer().Mark("c", "m")
	rep := hub.Report()
	if len(rep.Counters) != 1 || len(rep.Spans) != 0 || len(rep.Marks) != 0 {
		t.Errorf("untraced hub report: %d counters, %d spans, %d marks; want 1, 0, 0",
			len(rep.Counters), len(rep.Spans), len(rep.Marks))
	}
}

// buildSampleHub assembles a small, fully deterministic hub exercising
// every instrument and trace feature the exporter handles.
func buildSampleHub() *Hub {
	clk := &steppingClock{now: origin}
	hub := New(clk)

	hub.Counter("tasks_total", L("kind", "vm")).Add(3)
	hub.Counter("tasks_total", L("kind", "lambda")).Add(5)
	hub.Gauge("live").Set(2)
	h := hub.Histogram("latency_seconds", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	tr := hub.Tracer()
	s1 := tr.StartSpan("executor", "launch", L("exec", "e1"), L("kind", "vm"))
	clk.advance(1500 * time.Millisecond)
	s1.End()
	s2 := tr.StartSpan("task", "run", L("task", "0"))
	clk.advance(time.Second)
	tr.Mark("timeline", "segue_commence")
	_ = s2 // left open on purpose
	return hub
}

type steppingClock struct{ now time.Time }

func (c *steppingClock) Now() time.Time          { return c.now }
func (c *steppingClock) advance(d time.Duration) { c.now = c.now.Add(d) }

func TestReportJSONGolden(t *testing.T) {
	got, err := buildSampleHub().Report().JSON()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report.golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report JSON differs from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestReportDeterministic(t *testing.T) {
	a, err := buildSampleHub().Report().JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildSampleHub().Report().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two identically-built hubs produced different JSON reports")
	}
}

func TestPrometheusExport(t *testing.T) {
	var buf bytes.Buffer
	if err := buildSampleHub().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`tasks_total{kind="lambda"} 5`,
		`tasks_total{kind="vm"} 3`,
		`live 2`,
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="1"} 2`,
		`latency_seconds_bucket{le="10"} 3`,
		`latency_seconds_bucket{le="+Inf"} 4`,
		`latency_seconds_count 4`,
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestSpanIDsFollowStartOrder(t *testing.T) {
	hub := New(testClock(origin))
	tr := hub.Tracer()
	var spans []*Span
	for i := 0; i < 5; i++ {
		spans = append(spans, tr.StartSpan("c", "s"))
	}
	// End out of order: IDs must still reflect start order.
	spans[3].End()
	spans[0].End()
	for i, s := range tr.Spans() {
		if s.ID != i {
			t.Fatalf("span %d has ID %d, want start-ordered IDs", i, s.ID)
		}
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	clk := &steppingClock{now: origin}
	tr := New(clk).Tracer()
	s := tr.StartSpan("c", "s")
	clk.advance(time.Second)
	s.End()
	first := tr.Spans()[0].Finish
	clk.advance(time.Minute)
	s.End() // must not move the finish time
	if got := tr.Spans()[0].Finish; !got.Equal(first) {
		t.Errorf("second End() moved finish time from %v to %v", first, got)
	}
}
