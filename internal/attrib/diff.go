package attrib

import (
	"bytes"
	"fmt"
)

// DiffEntry is one cause's old-vs-new comparison. DeltaUS/DeltaUSD are
// raw (new − old); WorseUS is the sign-adjusted delta where positive
// always means "worse" — more blame, or (for savings causes) less saved.
type DiffEntry struct {
	Cause    Cause   `json:"cause"`
	Savings  bool    `json:"savings,omitempty"`
	OldUS    int64   `json:"old_us"`
	NewUS    int64   `json:"new_us"`
	DeltaUS  int64   `json:"delta_us"`
	WorseUS  int64   `json:"worse_us"`
	OldUSD   float64 `json:"old_usd,omitempty"`
	NewUSD   float64 `json:"new_usd,omitempty"`
	DeltaUSD float64 `json:"delta_usd,omitempty"`
}

// Diff is the cause-by-cause comparison of two attribution reports'
// totals tables.
type Diff struct {
	OldJobs         int         `json:"old_jobs"`
	NewJobs         int         `json:"new_jobs"`
	MakespanDeltaUS int64       `json:"makespan_delta_us"`
	Entries         []DiffEntry `json:"entries"`
}

// DiffReports compares two reports cause by cause over their totals.
// Entries follow the canonical cause order, so rendering and assertions
// are deterministic.
func DiffReports(old, new *Report) *Diff {
	d := &Diff{
		OldJobs:         old.Totals.Jobs,
		NewJobs:         new.Totals.Jobs,
		MakespanDeltaUS: new.Totals.MakespanUS - old.Totals.MakespanUS,
	}
	for _, c := range Causes {
		e := DiffEntry{Cause: c, Savings: c.Savings()}
		if c.Savings() {
			e.OldUS = old.Totals.SavedUS.Get(c)
			e.NewUS = new.Totals.SavedUS.Get(c)
			e.DeltaUS = e.NewUS - e.OldUS
			e.WorseUS = -e.DeltaUS // less saved = worse
		} else {
			e.OldUS = old.Totals.BlameUS.Get(c)
			e.NewUS = new.Totals.BlameUS.Get(c)
			e.DeltaUS = e.NewUS - e.OldUS
			e.WorseUS = e.DeltaUS // more blame = worse
			e.OldUSD = old.Totals.CostUSD.Get(c)
			e.NewUSD = new.Totals.CostUSD.Get(c)
			e.DeltaUSD = round6(e.NewUSD - e.OldUSD)
		}
		d.Entries = append(d.Entries, e)
	}
	return d
}

// AllZero reports whether the diff carries no change at all — the
// self-diff contract `make attrib` checks.
func (d *Diff) AllZero() bool {
	if d.MakespanDeltaUS != 0 || d.OldJobs != d.NewJobs {
		return false
	}
	for _, e := range d.Entries {
		if e.DeltaUS != 0 || e.DeltaUSD != 0 {
			return false
		}
	}
	return true
}

// Dominant returns the cause with the largest absolute time delta (ties
// broken by canonical order) and that delta's magnitude.
func (d *Diff) Dominant() (Cause, int64) {
	var best Cause
	var bestAbs int64 = -1
	for _, e := range d.Entries {
		abs := e.DeltaUS
		if abs < 0 {
			abs = -abs
		}
		if abs > bestAbs {
			best, bestAbs = e.Cause, abs
		}
	}
	return best, bestAbs
}

// String renders the diff as an aligned table, one row per cause, with
// the sign-adjusted verdict column ("+" = worse).
func (d *Diff) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "== attribution diff (old: %d jobs, new: %d jobs, makespan %s) ==\n",
		d.OldJobs, d.NewJobs, signedUSLabel(d.MakespanDeltaUS))
	fmt.Fprintf(&b, "%-18s %12s %12s %12s %12s %12s\n",
		"cause", "old", "new", "delta", "worse-by", "cost delta")
	for _, e := range d.Entries {
		name := string(e.Cause)
		if e.Savings {
			name += " (saved)"
		}
		fmt.Fprintf(&b, "%-18s %12s %12s %12s %12s %+11.6f$\n",
			name, usLabel(e.OldUS), usLabel(e.NewUS),
			usLabel(e.DeltaUS), usLabel(e.WorseUS), e.DeltaUSD)
	}
	if d.AllZero() {
		fmt.Fprintf(&b, "no change: the runs attribute identically\n")
	} else if c, abs := d.Dominant(); abs > 0 {
		fmt.Fprintf(&b, "dominant delta: %s (%s)\n", string(c), usLabel(abs))
	}
	return b.String()
}

// signedUSLabel renders a delta with an explicit sign.
func signedUSLabel(us int64) string {
	if us >= 0 {
		return "+" + usLabel(us)
	}
	return usLabel(us)
}
