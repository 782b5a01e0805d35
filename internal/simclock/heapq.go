package simclock

import "container/heap"

// eventHeap is a binary min-heap of events ordered by (key, seq) — earliest
// instant first, scheduling order within an instant. It backs the
// heap-indexed Clock (NewHeapBacked) and serves as the wheel's near-term
// ready queue and far-future overflow queue.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil // the slot must not keep a popped event reachable
	*h = old[:n-1]
	return ev
}

// compactHeap removes every ghost (fn == nil) entry from h in place and
// restores the heap invariant. Returns the number of entries removed.
func compactHeap(h *eventHeap) int {
	kept := (*h)[:0]
	for _, ev := range *h {
		if ev.fn != nil {
			kept = append(kept, ev)
		}
	}
	removed := len(*h) - len(kept)
	for i := len(kept); i < len(*h); i++ {
		(*h)[i] = nil
	}
	*h = kept
	heap.Init(h)
	return removed
}

// heapQueue is the original binary-heap event index, kept as the reference
// implementation behind NewHeapBacked so the differential property test,
// the fuzz harness, and the cross-implementation goldens can pin the timer
// wheel's observable behavior against it.
type heapQueue struct {
	h eventHeap
}

func (q *heapQueue) push(ev *event) { heap.Push(&q.h, ev) }

func (q *heapQueue) popMin() *event {
	if len(q.h) == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*event)
}

func (q *heapQueue) peekMin() *event {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

func (q *heapQueue) len() int { return len(q.h) }

func (q *heapQueue) compact() int { return compactHeap(&q.h) }
