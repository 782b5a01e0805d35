package eventlog

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"
)

// referenceMerge is the two-copy merge Merge replaced: snapshot each bus
// into a flat slice, decoding its records field by field, then repeatedly
// take the earliest head of all the snapshots, ties to the earlier bus.
func referenceMerge(buses ...*Bus) []Event {
	streams := make([][]Event, 0, len(buses))
	for _, b := range buses {
		var flat []Event
		if b != nil {
			b.mu.Lock()
			for _, c := range b.chunks {
				for _, r := range c {
					flat = append(flat, Event{
						TS: r.ts, Type: allTypes[r.typ],
						App: b.strs[r.app], Exec: b.strs[r.exec], Kind: b.strs[r.kind],
						Stage: int(r.stage), Task: int(r.task), Cores: int(r.cores),
						Bytes: r.bytes, Note: b.strs[r.note],
					})
				}
			}
			b.mu.Unlock()
		}
		streams = append(streams, flat)
	}
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

// randomBus emits n events whose timestamps advance by 0–step µs, so
// buses built alike tie with each other often. With disorder, one event
// in 50 jumps back in time, which Merge must still place as the
// reference does. Apps repeat from a small set; one note in 8 is a fresh
// string.
func randomBus(rng *rand.Rand, id, n, step int, disorder bool) *Bus {
	b := NewBus(testOrigin)
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
		e.App, e.Bytes = apps[rng.Intn(len(apps))], int64(rng.Intn(3))<<40
		if rng.Intn(8) == 0 {
			e.Note = strconv.Itoa(rng.Intn(100))
		}
		b.Emit(testOrigin.Add(time.Duration(at)*time.Microsecond), e)
	}
	return b
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
		buses := make([]*Bus, k)
		for i := range buses {
			switch r := rng.Intn(10); {
			case r == 0:
				// A nil bus.
			case r == 1 && i > 0:
				buses[i] = buses[rng.Intn(i)]
			default:
				buses[i] = randomBus(rng, i, lengths[rng.Intn(len(lengths))], step, disorder)
			}
		}
		got, want := Merge(buses...), referenceMerge(buses...)
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
	buses := []*Bus{randomBus(rng, 0, 300, 3, false)}
	for i := 1; i < 5; i++ {
		buses = append(buses, randomBus(rng, i, 3*chunkSize+11, 3, false))
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
// is still appending to, across chunk edges. Run it under -race.
func TestMergeWhileEmitting(t *testing.T) {
	const n = 3*chunkSize + 5
	live, done := NewBus(testOrigin), NewBus(testOrigin)
	done.Emit(testOrigin, Ev(TaskEnd))
	finished := make(chan struct{})
	defer func() { <-finished }()
	go func() {
		defer close(finished)
		for i := 0; i < n; i++ {
			e := Ev(TaskEnd)
			e.Task = i
			live.Emit(testOrigin.Add(time.Duration(i)*time.Microsecond), e)
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
