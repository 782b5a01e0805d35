package cliutil

import (
	"sort"
	"strings"
	"testing"

	"splitserve"
)

func TestScenarioByNameCoversAllKinds(t *testing.T) {
	seen := map[splitserve.ScenarioKind]bool{}
	for name, kind := range scenarioByName {
		if name == "" {
			t.Fatal("empty scenario name")
		}
		if seen[kind] {
			t.Fatalf("kind %d mapped twice", kind)
		}
		seen[kind] = true
	}
	if len(seen) != 8 {
		t.Fatalf("scenario map covers %d kinds, want 8", len(seen))
	}
	for _, name := range ScenarioNames() {
		if kind, err := ParseScenario(name); err != nil || kind != scenarioByName[name] {
			t.Fatalf("ParseScenario(%q) = %d, %v", name, kind, err)
		}
	}
	if _, err := ParseScenario("nope"); err == nil || !strings.Contains(err.Error(), "accepted: autoscale, hybrid") {
		t.Fatalf("unknown scenario should list accepted names, got %v", err)
	}
}

func TestBuildWorkload(t *testing.T) {
	for _, name := range WorkloadNames {
		w, err := BuildWorkload(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.Name() == "" || w.DefaultParallelism() <= 0 {
			t.Fatalf("%s: degenerate workload", name)
		}
		if strings.HasPrefix(name, "tpcds-") && !strings.Contains(w.Name(), strings.TrimPrefix(name, "tpcds-")) {
			t.Fatalf("%s built %s", name, w.Name())
		}
	}
	if _, err := BuildWorkload("nope", 1); err == nil || !strings.Contains(err.Error(), "accepted:") {
		t.Fatalf("unknown workload should list accepted names, got %v", err)
	}
}

func TestScenarioNamesSortedAndComplete(t *testing.T) {
	names := ScenarioNames()
	if len(names) != len(scenarioByName) {
		t.Fatalf("ScenarioNames covers %d of %d", len(names), len(scenarioByName))
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("ScenarioNames not sorted: %v", names)
	}
}

// TestCores: -r and -small default to the workload's parallelism and a
// quarter of it, and the free VM cores never default to 0, which a
// scenario would read as "all of them".
func TestCores(t *testing.T) {
	w, err := BuildWorkload("sparkpi", 1)
	if err != nil {
		t.Fatal(err)
	}
	def := w.DefaultParallelism()
	for _, c := range []struct{ r, small, wantR, wantSmall int }{
		{0, 0, def, max(1, def/4)},
		{16, 0, 16, 4},
		{16, 3, 16, 3},
		{3, 0, 3, 1},
		{1, 0, 1, 1},
	} {
		r, small := Cores(w, c.r, c.small)
		if r != c.wantR || small != c.wantSmall {
			t.Errorf("Cores(-r %d -small %d) = %d, %d; want %d, %d",
				c.r, c.small, r, small, c.wantR, c.wantSmall)
		}
	}
}
