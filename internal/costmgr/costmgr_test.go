package costmgr

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"splitserve/internal/simrand"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testFile is a small two-workload profile set with curves shaped like
// the paper's Figure 4: time falls with parallelism, cost dips at a
// sweet spot and rises again at the flat tail.
func testFile() *File {
	return &File{
		Version: Version,
		Seed:    1,
		Curves: []Curve{
			{
				Workload: "pagerank", Substrate: SubstrateVM,
				Points: []Point{
					{Parallelism: 1, ExecTimeUS: 800_000_000, CostUSD: 0.40},
					{Parallelism: 2, ExecTimeUS: 420_000_000, CostUSD: 0.30},
					{Parallelism: 4, ExecTimeUS: 230_000_000, CostUSD: 0.25},
					{Parallelism: 8, ExecTimeUS: 150_000_000, CostUSD: 0.32},
					{Parallelism: 16, ExecTimeUS: 140_000_000, CostUSD: 0.55},
				},
			},
			{
				Workload: "pagerank", Substrate: SubstrateLambda,
				Points: []Point{
					{Parallelism: 1, ExecTimeUS: 900_000_000, CostUSD: 0.50},
					{Parallelism: 8, ExecTimeUS: 180_000_000, CostUSD: 0.28},
				},
			},
			{
				Workload: "kmeans", Substrate: SubstrateVM,
				Points: []Point{
					{Parallelism: 2, ExecTimeUS: 300_000_000, CostUSD: 0.10},
					{Parallelism: 4, ExecTimeUS: 290_000_000, CostUSD: 0.18},
				},
			},
		},
	}
}

func TestFileRoundTrip(t *testing.T) {
	f := testFile()
	buf, err := f.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	got, err := Parse(buf)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	buf2, err := got.JSON()
	if err != nil {
		t.Fatalf("JSON round 2: %v", err)
	}
	if string(buf) != string(buf2) {
		t.Fatal("profile file does not round-trip byte-identically")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "profiles.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("Load of a missing file succeeded")
	}
}

func TestValidateRejects(t *testing.T) {
	mutate := func(fn func(f *File)) *File {
		f := testFile()
		fn(f)
		return f
	}
	cases := map[string]*File{
		"wrong version":        mutate(func(f *File) { f.Version = Version + 1 }),
		"no curves":            mutate(func(f *File) { f.Curves = nil }),
		"empty workload":       mutate(func(f *File) { f.Curves[0].Workload = "" }),
		"unknown substrate":    mutate(func(f *File) { f.Curves[0].Substrate = "fpga" }),
		"duplicate curve":      mutate(func(f *File) { f.Curves[1] = f.Curves[0] }),
		"no points":            mutate(func(f *File) { f.Curves[0].Points = nil }),
		"parallelism zero":     mutate(func(f *File) { f.Curves[0].Points[0].Parallelism = 0 }),
		"unsorted parallelism": mutate(func(f *File) { f.Curves[0].Points[1].Parallelism = 1 }),
		"zero exec time":       mutate(func(f *File) { f.Curves[0].Points[0].ExecTimeUS = 0 }),
		"negative cost":        mutate(func(f *File) { f.Curves[0].Points[0].CostUSD = -0.1 }),
	}
	for name, f := range cases {
		if err := f.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the file", name)
		}
	}
	if err := testFile().Validate(); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
}

func TestPredictInterpolatesAndClamps(t *testing.T) {
	f := testFile()
	c := &f.Curves[0] // pagerank/vm
	tm, cost := c.Predict(0)
	if tm != 800*time.Second || cost != 0.40 {
		t.Fatalf("below range: got (%s, %g), want clamp to first point", tm, cost)
	}
	tm, cost = c.Predict(64)
	if tm != 140*time.Second || cost != 0.55 {
		t.Fatalf("above range: got (%s, %g), want clamp to last point", tm, cost)
	}
	tm, cost = c.Predict(4)
	if tm != 230*time.Second || cost != 0.25 {
		t.Fatalf("exact point: got (%s, %g)", tm, cost)
	}
	tm, cost = c.Predict(3) // halfway between 2 and 4
	if tm != 325*time.Second || cost != 0.275 {
		t.Fatalf("interpolated: got (%s, %g), want (325s, 0.275)", tm, cost)
	}
	if c.MaxParallelism() != 16 {
		t.Fatalf("MaxParallelism = %d", c.MaxParallelism())
	}
}

func TestPolicyByName(t *testing.T) {
	for _, want := range []Policy{MinCost, MinTime, Knee} {
		got, err := PolicyByName(want.String())
		if err != nil || got != want {
			t.Fatalf("PolicyByName(%q) = %v, %v", want.String(), got, err)
		}
	}
	if _, err := PolicyByName("cheapest"); err == nil || !strings.Contains(err.Error(), "min-cost") {
		t.Fatalf("unknown policy should list the accepted names, got %v", err)
	}
}

func TestDecideFallback(t *testing.T) {
	m, err := NewManager(testFile())
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.Decide(MinCost, Request{Workload: "tpcds", Fallback: 8})
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if d.Source != "fallback" || d.Cores != 8 || !d.Feasible || d.PredictedRunUS != 0 {
		t.Fatalf("fallback decision = %+v", d)
	}
	if _, err := m.Decide(MinCost, Request{Workload: "tpcds"}); err == nil {
		t.Fatal("no profile and no fallback should be an error")
	}
	if _, err := m.Decide(Policy(99), Request{Workload: "pagerank", Fallback: 1}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := m.Decide(MinCost, Request{Fallback: 1}); err == nil {
		t.Fatal("empty workload accepted")
	}
}

func TestDecideSubstrateFallsBack(t *testing.T) {
	m, err := NewManager(testFile())
	if err != nil {
		t.Fatal(err)
	}
	// kmeans is only profiled on vm; asking for lambda must still use it.
	d, err := m.Decide(MinTime, Request{Workload: "kmeans", Substrate: SubstrateLambda, Fallback: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d.Source != "profile" || d.Substrate != SubstrateVM {
		t.Fatalf("expected the vm curve to answer, got %+v", d)
	}
}

// TestDecideGolden pins the full decision table — every policy against a
// grid of constraints — to testdata/alloc.golden.json. Regenerate with
//
//	go test ./internal/costmgr -run Golden -update
func TestDecideGolden(t *testing.T) {
	m, err := NewManager(testFile())
	if err != nil {
		t.Fatal(err)
	}
	type goldenCase struct {
		Name     string   `json:"name"`
		Policy   string   `json:"policy"`
		Request  Request  `json:"request"`
		Decision Decision `json:"decision"`
	}
	cases := []goldenCase{
		{Name: "min-cost unconstrained", Policy: "min-cost",
			Request: Request{Workload: "pagerank", Fallback: 8}},
		{Name: "min-cost slo 1.5", Policy: "min-cost",
			Request: Request{Workload: "pagerank", Fallback: 8, SLOFactor: 1.5}},
		{Name: "min-cost tight deadline", Policy: "min-cost",
			Request: Request{Workload: "pagerank", Fallback: 8, Deadline: 160 * time.Second}},
		{Name: "min-cost infeasible deadline", Policy: "min-cost",
			Request: Request{Workload: "pagerank", Fallback: 8, Deadline: time.Second}},
		{Name: "min-cost capped at 4", Policy: "min-cost",
			Request: Request{Workload: "pagerank", Fallback: 8, MaxCores: 4, SLOFactor: 2}},
		{Name: "min-cost lambda curve", Policy: "min-cost",
			Request: Request{Workload: "pagerank", Substrate: SubstrateLambda, Fallback: 8, SLOFactor: 1.5}},
		{Name: "min-time uncapped", Policy: "min-time",
			Request: Request{Workload: "pagerank", Fallback: 8}},
		{Name: "min-time budget 0.30", Policy: "min-time",
			Request: Request{Workload: "pagerank", Fallback: 8, BudgetUSD: 0.30}},
		{Name: "min-time impossible budget", Policy: "min-time",
			Request: Request{Workload: "pagerank", Fallback: 8, BudgetUSD: 0.01}},
		{Name: "knee default cutoff", Policy: "knee",
			Request: Request{Workload: "pagerank", Fallback: 8}},
		{Name: "knee loose cutoff", Policy: "knee",
			Request: Request{Workload: "pagerank", Fallback: 8, KneeCutoff: 0.01}},
		{Name: "knee capped at 2", Policy: "knee",
			Request: Request{Workload: "pagerank", Fallback: 8, MaxCores: 2}},
		{Name: "kmeans min-cost", Policy: "min-cost",
			Request: Request{Workload: "kmeans", Fallback: 8, SLOFactor: 1.5}},
	}
	for i := range cases {
		p, err := PolicyByName(cases[i].Policy)
		if err != nil {
			t.Fatal(err)
		}
		d, err := m.Decide(p, cases[i].Request)
		if err != nil {
			t.Fatalf("%s: %v", cases[i].Name, err)
		}
		cases[i].Decision = d
	}
	got, err := json.MarshalIndent(cases, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "alloc.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if string(got) != string(want) {
		t.Fatalf("decision table drifted from %s (run with -update to regenerate)\ngot:\n%s", golden, got)
	}
}

// TestMinCostPropertyFeasibility drives Decide with randomized curves and
// deadlines and asserts the min-cost invariants: if any profiled R meets
// the deadline, the pick meets it too and no cheaper feasible R exists;
// if none does, the pick is the fastest R and is flagged infeasible.
func TestMinCostPropertyFeasibility(t *testing.T) {
	rng := simrand.New(0xc057)
	for iter := 0; iter < 500; iter++ {
		n := 2 + int(rng.Uint64()%6)
		pts := make([]Point, n)
		par := 0
		for i := range pts {
			par += 1 + int(rng.Uint64()%4)
			pts[i] = Point{
				Parallelism: par,
				ExecTimeUS:  int64(1_000_000 + rng.Uint64()%500_000_000),
				CostUSD:     float64(rng.Uint64()%1_000_000) / 1e4,
			}
		}
		f := &File{Version: Version, Curves: []Curve{
			{Workload: "w", Substrate: SubstrateVM, Points: pts},
		}}
		m, err := NewManager(f)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		deadline := time.Duration(rng.Uint64() % 600_000_000_000) // up to 600s
		d, err := m.Decide(MinCost, Request{Workload: "w", Fallback: 1, Deadline: deadline})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		c := m.Curve("w", SubstrateVM)
		anyFeasible := false
		var cheapestFeasible float64
		for r := 1; r <= c.MaxParallelism(); r++ {
			tm, cost := c.Predict(r)
			if deadline > 0 && tm > deadline {
				continue
			}
			if !anyFeasible || cost < cheapestFeasible {
				cheapestFeasible = cost
			}
			anyFeasible = true
		}
		if anyFeasible {
			if !d.Feasible {
				t.Fatalf("iter %d: feasible R exists but decision flagged infeasible: %+v", iter, d)
			}
			if deadline > 0 && d.PredictedRun() > deadline {
				t.Fatalf("iter %d: min-cost picked R=%d missing deadline %s (predicted %s) while a feasible R exists",
					iter, d.Cores, deadline, d.PredictedRun())
			}
			if d.PredictedCostUSD > cheapestFeasible {
				t.Fatalf("iter %d: min-cost paid %g when a feasible R costs %g",
					iter, d.PredictedCostUSD, cheapestFeasible)
			}
		} else {
			if d.Feasible {
				t.Fatalf("iter %d: no R meets deadline %s but decision claims feasible: %+v", iter, deadline, d)
			}
		}
		// Determinism: the same request decides identically.
		d2, err := m.Decide(MinCost, Request{Workload: "w", Fallback: 1, Deadline: deadline})
		if err != nil || d2 != d {
			t.Fatalf("iter %d: decision not deterministic: %+v vs %+v (%v)", iter, d, d2, err)
		}
	}
}
