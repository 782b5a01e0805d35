package simclock

import (
	"container/heap"
	"math/bits"
)

// wheelQueue is a hierarchical timer wheel: the default event-queue index
// behind New.
//
// Layout. Virtual time is quantized into ticks of 2^tickShift ns (~1.05 ms
// — comfortably finer than the simulator's smallest scheduled delays, the
// 4 ms dispatch cost and 1 ms-scale I/O waits). Four levels of 256 slots
// each cover spans of 256, 256², 256³ and 256⁴ ticks; level l slot s holds
// the events whose tick, written base 256, agrees with the cursor above
// digit l and has digit l equal to s. Events beyond the level-3 horizon
// (2^32 ticks ≈ 52 simulated days from the cursor block) wait in a small
// overflow heap. Events at or before the cursor live in the "ready" heap,
// ordered by (key, seq).
//
// Invariants:
//   - every queued event is in exactly one of: ready, a slot, overflow;
//   - slot and overflow events have tick > cursor, ready events tick ≤
//     cursor — so ready's minimum is the global minimum (keys below
//     (cursor+1)<<tickShift sort before every key outside ready);
//   - per-level occupancy bitmaps mirror slot emptiness exactly.
//
// Operations. push places the event directly at its final level (an O(1)
// digit comparison — no per-tick stepping). popMin/peekMin serve from
// ready, calling advance when it runs dry: advance scans the level-0
// bitmap for the next occupied slot in the current window and drains it
// into ready; failing that it finds the next occupied slot at the coarsest
// necessary level, jumps the cursor to that block's start, and cascades
// the slot's events back through push so they redistribute into finer
// levels (each event cascades at most wheelLevels times over its life);
// failing that it refills the wheels from the overflow heap. Because the
// cursor only advances when everything before it has been handed to ready,
// an event may always be pushed for an already-passed tick — it simply
// goes straight to ready (Clock clamps events to the virtual present, but
// peek-driven loops like RunUntil advance the cursor past the clock's
// now).
//
// Ghosts (cancelled entries, fn == nil) ride wherever they were placed and
// are discarded by the Clock at pop time, exactly as with the heap index,
// so the ghost/high-water/compaction counters behave identically between
// the two implementations — the property the differential tests pin.
type wheelQueue struct {
	cursor   int64 // latest tick whose events have been moved to ready
	ready    eventHeap
	slots    [wheelLevels][slotsPerLevel][]*event
	occ      [wheelLevels][slotsPerLevel / 64]uint64
	overflow eventHeap
	n        int
}

const (
	tickShift     = 20 // tick = 2^20 ns ≈ 1.05 ms
	levelBits     = 8
	slotsPerLevel = 1 << levelBits
	wheelLevels   = 4
	slotMask      = slotsPerLevel - 1
)

func newWheelQueue() *wheelQueue { return &wheelQueue{} }

func (q *wheelQueue) len() int { return q.n }

func (q *wheelQueue) push(ev *event) {
	q.n++
	q.place(ev)
}

// place routes ev to ready, a wheel slot, or overflow according to its
// tick. Also used to cascade events when the cursor enters a coarse slot.
func (q *wheelQueue) place(ev *event) {
	t := ev.key >> tickShift
	if t <= q.cursor {
		heap.Push(&q.ready, ev)
		return
	}
	for l := 0; l < wheelLevels; l++ {
		if t>>(levelBits*(l+1)) == q.cursor>>(levelBits*(l+1)) {
			s := (t >> (levelBits * l)) & slotMask
			q.slots[l][s] = append(q.slots[l][s], ev)
			q.occ[l][s>>6] |= 1 << uint(s&63)
			return
		}
	}
	heap.Push(&q.overflow, ev)
}

func (q *wheelQueue) popMin() *event {
	if len(q.ready) == 0 {
		q.advance()
		if len(q.ready) == 0 {
			return nil
		}
	}
	q.n--
	return heap.Pop(&q.ready).(*event)
}

func (q *wheelQueue) peekMin() *event {
	if len(q.ready) == 0 {
		q.advance()
		if len(q.ready) == 0 {
			return nil
		}
	}
	return q.ready[0]
}

// advance moves the cursor forward until ready is non-empty or the queue
// is exhausted. The current slot index at each level is never occupied
// (such ticks would have routed to a finer level or to ready), so the
// bitmap scans are from-inclusive.
func (q *wheelQueue) advance() {
	for q.n > len(q.ready) {
		if s := q.nextOccupied(0, q.cursor&slotMask); s >= 0 {
			q.cursor = q.cursor&^slotMask | s
			q.drainSlot(s)
			return
		}
		cascaded := false
		for l := 1; l < wheelLevels; l++ {
			shift := uint(levelBits * l)
			if s := q.nextOccupied(l, (q.cursor>>shift)&slotMask); s >= 0 {
				// Jump to the block's first tick; its events re-place
				// into finer levels (or ready) relative to that.
				q.cursor = q.cursor>>(shift+levelBits)<<(shift+levelBits) | s<<shift
				q.cascadeSlot(l, s)
				cascaded = true
				break
			}
		}
		if cascaded {
			continue
		}
		if len(q.overflow) > 0 {
			q.refill()
			continue
		}
		return
	}
}

// nextOccupied returns the lowest occupied slot index ≥ from at level l,
// or -1 if the rest of the level is empty.
func (q *wheelQueue) nextOccupied(l int, from int64) int64 {
	w := int(from >> 6)
	if word := q.occ[l][w] >> uint(from&63); word != 0 {
		return from + int64(bits.TrailingZeros64(word))
	}
	for w++; w < slotsPerLevel/64; w++ {
		if word := q.occ[l][w]; word != 0 {
			return int64(w*64 + bits.TrailingZeros64(word))
		}
	}
	return -1
}

// drainSlot moves every event in level-0 slot s into the ready heap.
func (q *wheelQueue) drainSlot(s int64) {
	evs := q.slots[0][s]
	q.slots[0][s] = evs[:0] // keep capacity for the next lap
	q.occ[0][s>>6] &^= 1 << uint(s&63)
	for i, ev := range evs {
		heap.Push(&q.ready, ev)
		evs[i] = nil
	}
}

// cascadeSlot redistributes level-l slot s (the block the cursor just
// entered) into finer levels via place.
func (q *wheelQueue) cascadeSlot(l int, s int64) {
	evs := q.slots[l][s]
	q.slots[l][s] = evs[:0]
	q.occ[l][s>>6] &^= 1 << uint(s&63)
	for i, ev := range evs {
		q.place(ev)
		evs[i] = nil
	}
}

// refill jumps the cursor to the earliest overflow event and moves every
// overflow event within that event's level-3 block back into the wheels.
func (q *wheelQueue) refill() {
	q.cursor = q.overflow[0].key >> tickShift
	block := q.cursor >> (levelBits * wheelLevels)
	for len(q.overflow) > 0 && q.overflow[0].key>>tickShift>>(levelBits*wheelLevels) == block {
		q.place(heap.Pop(&q.overflow).(*event))
	}
}

// compact removes every ghost entry from ready, the slots, and overflow.
func (q *wheelQueue) compact() int {
	removed := compactHeap(&q.ready) + compactHeap(&q.overflow)
	for l := range q.slots {
		for s := range q.slots[l] {
			evs := q.slots[l][s]
			if len(evs) == 0 {
				continue
			}
			kept := evs[:0]
			for _, ev := range evs {
				if ev.fn != nil {
					kept = append(kept, ev)
				} else {
					removed++
				}
			}
			for i := len(kept); i < len(evs); i++ {
				evs[i] = nil
			}
			q.slots[l][s] = kept
			if len(kept) == 0 {
				q.occ[l][s>>6] &^= 1 << uint(s&63)
			}
		}
	}
	q.n -= removed
	return removed
}
