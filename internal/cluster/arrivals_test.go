package cluster

import (
	"sort"
	"testing"
	"time"
)

// TestBurstyOverlappingBurstsSorted is the regression for the bursty
// arrival bug: with K jobs 1 s apart and bursts only GAP apart, K×1s >
// GAP makes consecutive bursts overlap, and the generator used to emit
// the tail of burst b after the head of burst b+1 — violating the
// documented ascending contract.
func TestBurstyOverlappingBurstsSorted(t *testing.T) {
	out, err := ParseArrivals("bursty:10x5s", 30, 1)
	if err != nil {
		t.Fatalf("ParseArrivals: %v", err)
	}
	if len(out) != 30 {
		t.Fatalf("got %d offsets, want 30", len(out))
	}
	if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i] < out[j] }) {
		t.Fatalf("bursty:10x5s offsets not ascending: %v", out)
	}
	// Overlap really happens in this spec: job 9 of burst 0 lands at 9s,
	// after job 0 of burst 1 at 5s — both must be present.
	want := map[time.Duration]bool{5 * time.Second: false, 9 * time.Second: false}
	for _, d := range out {
		if _, ok := want[d]; ok {
			want[d] = true
		}
	}
	for d, seen := range want {
		if !seen {
			t.Errorf("offset %s missing from overlapping bursts: %v", d, out)
		}
	}
}
