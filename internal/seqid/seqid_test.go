package seqid

import (
	"fmt"
	"math"
	"testing"
)

// TestAppendMatchesSprintf: every ID built with Append must keep the
// bytes the simulator's fmt-built IDs had, past the padding width too.
func TestAppendMatchesSprintf(t *testing.T) {
	for _, n := range []int{0, 1, 9, 10, 99, 100, 999, 1000, 123456, math.MaxInt64} {
		for _, width := range []int{0, 2, 3} {
			got := string(Append([]byte("la-"), n, width))
			if want := fmt.Sprintf("la-%0*d", width, n); got != want {
				t.Errorf("Append(%d, width %d) = %q, want %q", n, width, got, want)
			}
		}
	}
}
