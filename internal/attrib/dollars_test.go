package attrib

import "testing"

// TestDollarsSumInRegistrationOrder: an app's executor dollars are summed
// in registration order. The lifetimes here are chosen so that the float
// sum depends on the order (one huge lifetime, two tiny ones), which a
// walk over a map would make vary from run to run.
func TestDollarsSumInRegistrationOrder(t *testing.T) {
	al := &appLog{endUS: 2_000_000_000_000_000_000}
	lives := []struct {
		id, kind string
		addUS    int64
		remUS    int64
		removed  bool
	}{
		{"j000-v00", "vm", 0, 1_000_000_000_000_000_000, true},
		{"j000-l00", "lambda", 5, 6, true},
		{"j000-v01", "vm", 10, 90, true},
		{"j000-l01", "lambda", 20, 21, true},
		{"j000-v02", "vm", 1_999_999_999_999_999_900, 0, false}, // lives to the end
	}
	var want float64
	var vals []float64
	for _, l := range lives {
		al.execs = append(al.execs, execInfo{id: l.id, kind: l.kind, added: true,
			addUS: l.addUS, remUS: l.remUS, removed: l.removed})
		end := l.remUS
		if !l.removed {
			end = al.endUS
		}
		v := execDollars(l.kind, end-l.addUS)
		vals = append(vals, v)
		want += v
	}
	// The premise: another order gives another total.
	var reversed float64
	for i := len(vals) - 1; i >= 0; i-- {
		reversed += vals[i]
	}
	if reversed == want {
		t.Fatalf("premise: the sum %v does not depend on the order", want)
	}
	for i := 0; i < 20; i++ {
		if got := al.dollars(); got != want {
			t.Fatalf("dollars = %v, want the registration-order sum %v", got, want)
		}
	}
}
