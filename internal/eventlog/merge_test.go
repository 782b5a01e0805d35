package eventlog

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// referenceMerge is the two-copy merge Merge replaced, over streams
// captured as they were emitted: repeatedly take the earliest head of
// all the streams, ties to the earlier stream. It reads no bus, so it
// runs none of the code under test.
func referenceMerge(streams ...[]Event) []Event {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	if total == 0 {
		return nil
	}
	out := make([]Event, 0, total)
	idx := make([]int, len(streams))
	for len(out) < total {
		best := -1
		for k, s := range streams {
			if idx[k] >= len(s) {
				continue
			}
			if best == -1 || s[idx[k]].TS < streams[best][idx[best]].TS {
				best = k
			}
		}
		out = append(out, streams[best][idx[best]])
		idx[best]++
	}
	return out
}

// edgeCores are Cores values on both sides of the int16 range a record
// holds, and the ends of the int32 range Emit takes.
var edgeCores = []int{0, 2, -1, math.MaxInt16, math.MaxInt16 + 1, math.MinInt16, math.MinInt16 - 1,
	math.MaxInt32, math.MinInt32}

// kindPool holds more distinct kinds than a bus's kind table can code.
var kindPool = func() []string {
	p := []string{"vm", "lambda", "warm", "cold"}
	for len(p) < 300 {
		p = append(p, fmt.Sprintf("k%03d", len(p)))
	}
	return p
}()

// randomKind draws from kindPool, one kind in two a fresh copy of its
// pooled string, so equal kinds reach a bus at different addresses.
func randomKind(rng *rand.Rand) string {
	k := kindPool[rng.Intn(len(kindPool))]
	if rng.Intn(2) == 0 {
		k = strings.Clone(k)
	}
	return k
}

// randomBus emits n events whose timestamps advance by 0–step µs, so
// buses built alike tie with each other often, and returns the bus and
// the stream a subscriber saw. With disorder, one event in 50 jumps back
// in time, which Merge must still place as the reference does. Apps
// repeat from a small set; one note in 8 is a fresh string. Bytes,
// Cores past the int16 range and kinds past a full kind table make some
// events wide.
func randomBus(rng *rand.Rand, id, n, step int, disorder bool) (*Bus, []Event) {
	b := NewBus(testOrigin)
	var emitted []Event
	b.Subscribe(func(e Event) { emitted = append(emitted, e) })
	apps := []string{"", "j000-sparkpi", fmt.Sprintf("s%d-j001", id), "j002-pagerank"}
	ts := int64(0)
	for i := 0; i < n; i++ {
		ts += int64(rng.Intn(step + 1))
		at := ts
		if disorder && rng.Intn(50) == 0 {
			at -= int64(rng.Intn(20))
		}
		e := Ev(allTypes[rng.Intn(len(allTypes))])
		e.Stage, e.Task = id, i
		e.App = apps[rng.Intn(len(apps))]
		if rng.Intn(4) == 0 {
			e.Bytes = int64(rng.Intn(3)) << 40
		}
		if rng.Intn(4) == 0 {
			e.Cores = edgeCores[rng.Intn(len(edgeCores))]
		}
		if rng.Intn(3) == 0 {
			e.Kind = randomKind(rng)
		}
		if rng.Intn(8) == 0 {
			e.Note = strconv.Itoa(rng.Intn(100))
		}
		b.Emit(testOrigin.Add(time.Duration(at)*time.Microsecond), e)
	}
	return b, emitted
}

// TestMergeMatchesReference holds Merge to the two-copy reference on
// random streams: ties across buses, nil and empty buses, one bus passed
// twice, more buses than Merge keeps cursors for on the stack, and
// lengths on both sides of a chunk edge.
func TestMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lengths := []int{0, 1, 7, chunkSize - 1, chunkSize, chunkSize + 1, 2*chunkSize + 3}
	for round := 0; round < 20; round++ {
		k := 1 + rng.Intn(10)
		step := 1 + rng.Intn(4)
		disorder := round%4 == 3
		buses, streams := make([]*Bus, k), make([][]Event, k)
		for i := range buses {
			switch r := rng.Intn(10); {
			case r == 0:
				// A nil bus.
			case r == 1 && i > 0:
				j := rng.Intn(i)
				buses[i], streams[i] = buses[j], streams[j]
			default:
				buses[i], streams[i] = randomBus(rng, i, lengths[rng.Intn(len(lengths))], step, disorder)
			}
		}
		got, want := Merge(buses...), referenceMerge(streams...)
		if (got == nil) != (want == nil) || !slices.Equal(got, want) {
			t.Fatalf("round %d (%d buses, step %d, disorder %v): Merge differs from the reference (%d vs %d events)",
				round, k, step, disorder, len(got), len(want))
		}
	}
	if Merge() != nil || Merge(nil, NewBus(testOrigin)) != nil {
		t.Error("Merge of no events should be nil")
	}
}

// TestMergeAllocatesOnce: merging the buses of a sharded run allocates
// only the result.
func TestMergeAllocatesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var buses []*Bus
	for i := 0; i < 5; i++ {
		n := 3*chunkSize + 11
		if i == 0 {
			n = 300
		}
		b, _ := randomBus(rng, i, n, 3, false)
		buses = append(buses, b)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		_ = Merge(buses...)
	}); allocs != 1 {
		t.Errorf("Merge of %d buses: %v allocs, want 1", len(buses), allocs)
	}
	b := buses[1]
	if allocs := testing.AllocsPerRun(20, func() { _ = b.Events() }); allocs != 1 {
		t.Errorf("Bus.Events: %v allocs, want 1", allocs)
	}
}

// TestMergeWhileEmitting: Merge reads each bus's chunks after releasing
// its lock, so it must see a consistent prefix of a log another goroutine
// is still appending to, across the chunk edges of its records and of
// its wide entries alike. Run it under -race.
func TestMergeWhileEmitting(t *testing.T) {
	// liveEvent is the i-th event of the live bus: one in three carries
	// bytes and one in five cores past the int16 range, so both kinds of
	// chunk fill while Merge reads.
	liveEvent := func(i int) Event {
		e := Ev(TaskEnd)
		e.Task = i
		if i%3 == 0 {
			e.Bytes = int64(i) + 1
		}
		if i%5 == 0 {
			e.Cores = math.MaxInt16 + i
		}
		return e
	}
	const n = 3*chunkSize + 5
	live, done := NewBus(testOrigin), NewBus(testOrigin)
	done.Emit(testOrigin, Ev(TaskEnd))
	finished := make(chan struct{})
	defer func() { <-finished }()
	go func() {
		defer close(finished)
		for i := 0; i < n; i++ {
			live.Emit(testOrigin.Add(time.Duration(i)*time.Microsecond), liveEvent(i))
		}
	}()
	check := func(got []Event) bool {
		// done's one event ties live's first and goes after it.
		seen := 0
		for k, ev := range got {
			switch {
			case ev.Task == -1:
				if k != min(1, len(got)-1) {
					t.Errorf("the other bus's event at %d of %d", k, len(got))
					return false
				}
			case ev.Task != seen:
				t.Errorf("event %d of %d is task %d, want %d", k, len(got), ev.Task, seen)
				return false
			case ev.Bytes != liveEvent(seen).Bytes || ev.Cores != liveEvent(seen).Cores:
				t.Errorf("event %d of %d (task %d): bytes %d, cores %d, want %d, %d", k, len(got), seen,
					ev.Bytes, ev.Cores, liveEvent(seen).Bytes, liveEvent(seen).Cores)
				return false
			default:
				seen++
			}
		}
		return true
	}
	for running := true; running; {
		select {
		case <-finished:
			running = false
		default:
		}
		if !check(Merge(live, done)) {
			return
		}
	}
	if got := Merge(live, done); len(got) != n+1 || !check(got) {
		t.Errorf("after the writer finished: %d events, want %d", len(got), n+1)
	}
}
