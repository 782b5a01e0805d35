// Package costmgr is the paper's cost manager (Section 5.1, Figure 4):
// it consults offline parallelism-vs-time/cost profiles to pick each
// arriving job's core demand R automatically, instead of taking it as
// given. Profiles are produced by `splitserve-profile -out` (one curve
// per {workload, substrate}, execution time and marginal cost at each
// profiled degree of parallelism) and consumed online by three
// deterministic allocation policies:
//
//   - min-cost: the cheapest R whose predicted execution time still
//     meets the job's SLO deadline;
//   - min-time: the fastest R whose predicted cost stays under a budget
//     cap;
//   - knee: the paper-style marginal-benefit cutoff — stop adding cores
//     once the next profiled step no longer buys a meaningful speedup.
//
// Predictions between profiled points are linearly interpolated (and
// clamped outside the profiled range); a workload with no profile falls
// back to an explicit default R, so the cost manager degrades to the
// fixed-cores behavior rather than guessing. Every decision is pure and
// deterministic in (profile file, request), which keeps same-seed
// cluster runs byte-identical with `-cores auto` on.
package costmgr

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"
)

// Version is the on-disk profile format version this package reads and
// writes. Readers reject any other version outright: silently
// reinterpreting a future format would corrupt allocation decisions,
// the failure mode a version field exists to prevent.
const Version = 1

// Substrates a curve may be profiled on. SubstrateWarmLambda is the
// provisioned-concurrency pool with the /tmp shuffle cache tier: same
// Lambda compute pricing, but warm starts and cached repeat reads shift
// its time curve left relative to cold-start Lambda.
const (
	SubstrateVM         = "vm"
	SubstrateLambda     = "lambda"
	SubstrateWarmLambda = "warm-lambda"
)

// Point is one profiled sample: the workload's execution time and
// marginal cost at a given degree of parallelism. Times are integer
// microseconds so the file round-trips byte-identically.
type Point struct {
	Parallelism int     `json:"parallelism"`
	ExecTimeUS  int64   `json:"exec_time_us"`
	CostUSD     float64 `json:"cost_usd"`
}

// Curve is one workload's profile on one substrate, points sorted by
// strictly ascending parallelism.
type Curve struct {
	Workload  string  `json:"workload"`
	Substrate string  `json:"substrate"`
	Points    []Point `json:"points"`
}

// File is the versioned on-disk profile set.
type File struct {
	Version int     `json:"version"`
	Seed    uint64  `json:"seed"`
	Curves  []Curve `json:"curves"`
}

// Validate checks the file invariants the policies rely on.
func (f *File) Validate() error {
	if f.Version != Version {
		return fmt.Errorf("costmgr: profile version %d, this build reads version %d", f.Version, Version)
	}
	if len(f.Curves) == 0 {
		return errors.New("costmgr: profile file has no curves")
	}
	seen := map[[2]string]bool{}
	for i, c := range f.Curves {
		if c.Workload == "" {
			return fmt.Errorf("costmgr: curve %d has no workload name", i)
		}
		if c.Substrate != SubstrateVM && c.Substrate != SubstrateLambda && c.Substrate != SubstrateWarmLambda {
			return fmt.Errorf("costmgr: curve %d (%s) has unknown substrate %q (want %s, %s or %s)",
				i, c.Workload, c.Substrate, SubstrateVM, SubstrateLambda, SubstrateWarmLambda)
		}
		k := [2]string{c.Workload, c.Substrate}
		if seen[k] {
			return fmt.Errorf("costmgr: duplicate curve for workload %q substrate %q", c.Workload, c.Substrate)
		}
		seen[k] = true
		if len(c.Points) == 0 {
			return fmt.Errorf("costmgr: curve %s/%s has no points", c.Workload, c.Substrate)
		}
		prev := 0
		for j, p := range c.Points {
			if p.Parallelism < 1 {
				return fmt.Errorf("costmgr: curve %s/%s point %d: parallelism %d < 1",
					c.Workload, c.Substrate, j, p.Parallelism)
			}
			if p.Parallelism <= prev {
				return fmt.Errorf("costmgr: curve %s/%s point %d: parallelism %d not strictly ascending",
					c.Workload, c.Substrate, j, p.Parallelism)
			}
			prev = p.Parallelism
			if p.ExecTimeUS <= 0 {
				return fmt.Errorf("costmgr: curve %s/%s point %d: exec_time_us %d <= 0",
					c.Workload, c.Substrate, j, p.ExecTimeUS)
			}
			if p.CostUSD < 0 {
				return fmt.Errorf("costmgr: curve %s/%s point %d: negative cost %g",
					c.Workload, c.Substrate, j, p.CostUSD)
			}
		}
	}
	return nil
}

// JSON renders the file deterministically (stable field and curve order).
func (f *File) JSON() ([]byte, error) {
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// Parse decodes and validates a profile file from raw bytes.
func Parse(data []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("costmgr: parse profiles: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Load reads and validates a profile file from disk.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("costmgr: load profiles: %w", err)
	}
	return Parse(data)
}

// Policy selects how the manager trades execution time against cost.
type Policy int

// Allocation policies.
const (
	// MinCost picks the cheapest R whose predicted execution time meets
	// the deadline; with no deadline it is the globally cheapest R.
	MinCost Policy = iota + 1
	// MinTime picks the fastest R whose predicted cost stays under the
	// budget; with no budget it is the globally fastest R.
	MinTime
	// Knee walks the profiled points in ascending parallelism and stops
	// once the marginal speedup of the next step drops below the cutoff
	// — the paper's "performance-optimal degree of parallelism" without
	// paying for the flat tail of the curve.
	Knee
)

func (p Policy) String() string {
	switch p {
	case MinCost:
		return "min-cost"
	case MinTime:
		return "min-time"
	case Knee:
		return "knee"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// PolicyByName resolves "min-cost", "min-time" or "knee".
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "min-cost":
		return MinCost, nil
	case "min-time":
		return MinTime, nil
	case "knee":
		return Knee, nil
	default:
		return 0, fmt.Errorf("costmgr: unknown allocation policy %q (accepted: min-cost, min-time, knee)", name)
	}
}

// DefaultKnee is the marginal-benefit cutoff of the Knee policy: adding
// the next profiled step must still shave at least this fraction off the
// predicted execution time.
const DefaultKnee = 0.10

// Request describes one job the manager must size.
type Request struct {
	// Workload names the curve to consult (the mix name).
	Workload string
	// Substrate selects which profile curve to read (default vm, falling
	// back to the other substrate if the preferred one is missing).
	Substrate string
	// MaxCores caps the chosen R (0 = the curve's largest profiled
	// parallelism). Predictions above the profiled range are clamped.
	MaxCores int
	// Fallback is the R used when the workload has no profile at all; it
	// must be >= 1 (the fixed-cores demand the caller would have used).
	Fallback int
	// Deadline bounds MinCost's predicted execution time. When zero and
	// SLOFactor > 0, the deadline is SLOFactor x the curve's best
	// predicted time — "meet the SLO a fully provisioned run would get".
	Deadline  time.Duration
	SLOFactor float64
	// BudgetUSD caps MinTime's predicted cost (0 = uncapped).
	BudgetUSD float64
	// KneeCutoff overrides DefaultKnee (0 = default).
	KneeCutoff float64
}

// Decision is one allocation outcome. It is JSON-friendly (times in
// integer microseconds) so decision tables serialize byte-identically.
type Decision struct {
	Workload  string `json:"workload"`
	Policy    string `json:"policy"`
	Cores     int    `json:"cores"`
	Substrate string `json:"substrate,omitempty"`
	// Source is "profile" when a curve informed the pick, "fallback"
	// when the workload had no profile and Fallback was used verbatim.
	Source string `json:"source"`
	// Predictions at the chosen R (zero when Source is "fallback").
	PredictedRunUS   int64   `json:"predicted_run_us,omitempty"`
	PredictedCostUSD float64 `json:"predicted_cost_usd,omitempty"`
	// DeadlineUS / BudgetUSD echo the effective constraint MinCost /
	// MinTime ran against; Feasible reports whether the pick satisfies
	// it (an infeasible constraint degrades to best-effort).
	DeadlineUS int64   `json:"deadline_us,omitempty"`
	BudgetUSD  float64 `json:"budget_usd,omitempty"`
	Feasible   bool    `json:"feasible"`
}

// PredictedRun returns the decision's predicted execution time.
func (d Decision) PredictedRun() time.Duration {
	return time.Duration(d.PredictedRunUS) * time.Microsecond
}

// Manager answers allocation requests against a loaded profile file.
type Manager struct {
	curves map[[2]string]*Curve
}

// NewManager validates f and indexes its curves.
func NewManager(f *File) (*Manager, error) {
	if f == nil {
		return nil, errors.New("costmgr: nil profile file")
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	m := &Manager{curves: make(map[[2]string]*Curve, len(f.Curves))}
	for i := range f.Curves {
		c := &f.Curves[i]
		m.curves[[2]string{c.Workload, c.Substrate}] = c
	}
	return m, nil
}

// Curve returns the profile for (workload, substrate), or nil.
func (m *Manager) Curve(workload, substrate string) *Curve {
	return m.curves[[2]string{workload, substrate}]
}

// curveFor resolves the curve a request should consult: the requested
// substrate first (default vm), then the remaining substrates in a
// fixed preference order, so a file profiled on a subset of substrates
// still drives decisions. warm-lambda falls back to lambda before vm
// (closest cost model), everything else prefers vm then lambda.
func (m *Manager) curveFor(req Request) *Curve {
	pref := req.Substrate
	if pref == "" {
		pref = SubstrateVM
	}
	order := []string{pref}
	switch pref {
	case SubstrateWarmLambda:
		order = append(order, SubstrateLambda, SubstrateVM)
	case SubstrateLambda:
		order = append(order, SubstrateVM, SubstrateWarmLambda)
	default:
		order = append(order, SubstrateLambda, SubstrateWarmLambda)
	}
	for _, sub := range order {
		if c := m.Curve(req.Workload, sub); c != nil {
			return c
		}
	}
	return nil
}

// Predict interpolates c at parallelism r: linear between neighboring
// profiled points, clamped to the endpoints outside the profiled range.
func (c *Curve) Predict(r int) (execTime time.Duration, costUSD float64) {
	pts := c.Points
	if r <= pts[0].Parallelism {
		return time.Duration(pts[0].ExecTimeUS) * time.Microsecond, pts[0].CostUSD
	}
	last := pts[len(pts)-1]
	if r >= last.Parallelism {
		return time.Duration(last.ExecTimeUS) * time.Microsecond, last.CostUSD
	}
	// First point with Parallelism >= r; r is strictly inside the range.
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Parallelism >= r })
	lo, hi := pts[i-1], pts[i]
	frac := float64(r-lo.Parallelism) / float64(hi.Parallelism-lo.Parallelism)
	us := float64(lo.ExecTimeUS) + frac*float64(hi.ExecTimeUS-lo.ExecTimeUS)
	cost := lo.CostUSD + frac*(hi.CostUSD-lo.CostUSD)
	return time.Duration(us) * time.Microsecond, cost
}

// MaxParallelism is the curve's largest profiled degree of parallelism.
func (c *Curve) MaxParallelism() int { return c.Points[len(c.Points)-1].Parallelism }

// Decide sizes one job under policy p. Decisions are deterministic in
// (profiles, p, req); ties always resolve to the smallest R.
func (m *Manager) Decide(p Policy, req Request) (Decision, error) {
	switch p {
	case MinCost, MinTime, Knee:
	default:
		return Decision{}, fmt.Errorf("costmgr: unknown policy %v", p)
	}
	if req.Workload == "" {
		return Decision{}, errors.New("costmgr: request has no workload")
	}
	if req.MaxCores < 0 {
		return Decision{}, fmt.Errorf("costmgr: negative MaxCores %d", req.MaxCores)
	}
	c := m.curveFor(req)
	if c == nil {
		if req.Fallback < 1 {
			return Decision{}, fmt.Errorf("costmgr: no profile for workload %q and no fallback cores", req.Workload)
		}
		return Decision{
			Workload: req.Workload, Policy: p.String(),
			Cores: req.Fallback, Source: "fallback", Feasible: true,
		}, nil
	}

	maxR := c.MaxParallelism()
	if req.MaxCores > 0 && req.MaxCores < maxR {
		maxR = req.MaxCores
	}

	type cand struct {
		r    int
		t    time.Duration
		cost float64
	}
	cands := make([]cand, 0, maxR)
	best := cand{}
	for r := 1; r <= maxR; r++ {
		t, cost := c.Predict(r)
		cands = append(cands, cand{r, t, cost})
		if best.r == 0 || t < best.t {
			best = cand{r, t, cost}
		}
	}

	d := Decision{
		Workload: req.Workload, Policy: p.String(),
		Substrate: c.Substrate, Source: "profile",
	}
	pick := func(chosen cand, feasible bool) (Decision, error) {
		d.Cores = chosen.r
		d.PredictedRunUS = chosen.t.Microseconds()
		d.PredictedCostUSD = chosen.cost
		d.Feasible = feasible
		return d, nil
	}

	switch p {
	case MinCost:
		deadline := req.Deadline
		if deadline == 0 && req.SLOFactor > 0 {
			deadline = time.Duration(req.SLOFactor * float64(best.t))
		}
		d.DeadlineUS = deadline.Microseconds()
		chosen, found := cand{}, false
		for _, cd := range cands {
			if deadline > 0 && cd.t > deadline {
				continue
			}
			if !found || cd.cost < chosen.cost {
				chosen, found = cd, true
			}
		}
		if found {
			return pick(chosen, true)
		}
		// Infeasible deadline: best effort, the fastest R.
		return pick(best, false)
	case MinTime:
		d.BudgetUSD = req.BudgetUSD
		chosen, found := cand{}, false
		for _, cd := range cands {
			if req.BudgetUSD > 0 && cd.cost > req.BudgetUSD {
				continue
			}
			if !found || cd.t < chosen.t {
				chosen, found = cd, true
			}
		}
		if found {
			return pick(chosen, true)
		}
		// Nothing within budget: best effort, the cheapest R.
		chosen = cands[0]
		for _, cd := range cands {
			if cd.cost < chosen.cost {
				chosen = cd
			}
		}
		return pick(chosen, false)
	default: // Knee
		cutoff := req.KneeCutoff
		if cutoff == 0 {
			cutoff = DefaultKnee
		}
		// Walk the profiled points (not every integer: the marginal
		// benefit of the paper's knee rule is defined between measured
		// samples) while the next step still speeds the job up by at
		// least the cutoff fraction.
		pts := c.Points
		i := 0
		for i+1 < len(pts) && pts[i+1].Parallelism <= maxR {
			cur, next := pts[i], pts[i+1]
			gain := float64(cur.ExecTimeUS-next.ExecTimeUS) / float64(cur.ExecTimeUS)
			if gain < cutoff {
				break
			}
			i++
		}
		r := pts[i].Parallelism
		if r > maxR {
			r = maxR
		}
		t, cost := c.Predict(r)
		return pick(cand{r, t, cost}, true)
	}
}
