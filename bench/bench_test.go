package main

import (
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"slices"
	"testing"

	"splitserve/internal/eventlog"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.json from seed-1 full-size runs")

// TestSmoke runs every workload at a fiftieth of its size through one
// traced round, with all correctness checks, so a change that breaks the
// harness fails here in seconds.
func TestSmoke(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := runRound(w, 2, w.jobs/50, &tracer{run: w.name})
			if err != nil {
				t.Fatal(err)
			}
			if r.problem != nil {
				t.Fatal(r.problem)
			}
			if r.failed != 0 {
				t.Fatalf("%d of %d jobs failed", r.failed, r.jobs)
			}
			if len(r.layers) != len(perLayer) {
				t.Fatalf("traced round recorded %d per-layer metrics, want %d", len(r.layers), len(perLayer))
			}
			if r.layers["simclock.events_fired"] == 0 || r.layers["simclock.step_s"] == 0 {
				t.Fatalf("traced round recorded no clock work: %v", r.layers)
			}
		})
	}
}

// TestTracedLoopMatchesRun shows the traced round measures the program
// users run: driving Start/Step/Pump/Finalize by hand yields a report and
// event log byte-identical to Scheduler.Run's.
func TestTracedLoopMatchesRun(t *testing.T) {
	w, err := workloadByName("burst")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := runRound(w, 1, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runRound(w, 1, 200, &tracer{run: "burst"})
	if err != nil {
		t.Fatal(err)
	}
	if plain.digest != traced.digest {
		t.Fatalf("hand-driven digest %s, Scheduler.Run digest %s", traced.digest, plain.digest)
	}
}

// TestSteadyEventsFiredMatchesV1 shows the token dart leaves virtual
// behaviour unchanged: steady at 1k jobs fires exactly the events the v1
// loadbench recorded with real darts (BENCH_runqueue.json, jobs=1000).
func TestSteadyEventsFiredMatchesV1(t *testing.T) {
	w, err := workloadByName("steady")
	if err != nil {
		t.Fatal(err)
	}
	s, err := w.setup(1, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.run(); err != nil {
		t.Fatal(err)
	}
	if got := s.clock().Fired(); got != 23362 {
		t.Fatalf("steady at 1k jobs fired %d events, v1 recorded 23362", got)
	}
}

// TestStepGroupsCoverVocabulary fails when an event type has no step-split
// group, so a new event type cannot silently drop out of the split.
func TestStepGroupsCoverVocabulary(t *testing.T) {
	for _, typ := range eventlog.AllTypes() {
		group, ok := stepGroupOf[typ]
		if !ok {
			t.Errorf("event type %q has no step-split group", typ)
			continue
		}
		if !slices.ContainsFunc(perLayer, func(d metricDef) bool { return d.name == "simclock.step_s."+group }) {
			t.Errorf("event type %q maps to group %q, which has no simclock.step_s metric", typ, group)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the metrics and workloads the
// command prints in step with BENCHMARK.json.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	compare := func(kind string, got []metricDef, want []def) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: command has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for _, w := range want {
			i := slices.IndexFunc(got, func(d metricDef) bool { return d.name == w.Name })
			switch {
			case !valid.MatchString(w.Name):
				t.Errorf("%s: name %q has characters outside [A-Za-z0-9_.-]", kind, w.Name)
			case i < 0:
				t.Errorf("%s: %q is in BENCHMARK.json but the command does not print it", kind, w.Name)
			case got[i].unit != w.Unit:
				t.Errorf("%s: %q unit %q, BENCHMARK.json says %q", kind, w.Name, got[i].unit, w.Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, spec.EndToEnd)
	compare("per_layer", perLayer, spec.PerLayer)

	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	for i, w := range spec.Workloads {
		if i >= len(names) || names[i] != w.Name {
			t.Errorf("BENCHMARK.json workloads %v, command has %v", spec.Workloads, names)
			break
		}
	}
}

// TestPinnedDigests checks (or, with -update, rewrites) the seed-1
// full-size digests the command compares against.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("runs every workload at full size")
	}
	digests := map[string]string{}
	for _, w := range allWorkloads {
		r, err := runRound(w, pinnedSeed, w.jobs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.problem != nil {
			t.Fatal(r.problem)
		}
		digests[w.name] = r.digest
		if !*update {
			if err := checkPinned(w.name, r.digest); err != nil {
				t.Error(err)
			}
		}
	}
	if *update {
		out, err := json.MarshalIndent(digests, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/digests.json", append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
