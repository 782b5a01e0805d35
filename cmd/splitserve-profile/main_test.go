package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"splitserve/internal/experiments"
)

// runCLI runs the command in-process with args and returns what it wrote
// to stdout. It fails the test on a non-zero exit code.
func runCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	savedFlags, savedArgs, savedOut := flag.CommandLine, os.Args, os.Stdout
	defer func() { flag.CommandLine, os.Args, os.Stdout = savedFlags, savedArgs, savedOut }()
	flag.CommandLine = flag.NewFlagSet("splitserve-profile", flag.ContinueOnError)
	os.Args = append([]string{"splitserve-profile"}, args...)
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = out
	code := run()
	out.Close()
	if code != 0 {
		t.Fatalf("splitserve-profile %s: exit %d", strings.Join(args, " "), code)
	}
	buf, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestSweepIsFigure4 requires the CLI's sweep to be the paper's Figure 4
// sweep, point for point, on both substrates, and its event log to keep
// one app per sample.
func TestSweepIsFigure4(t *testing.T) {
	for _, substrate := range []string{"lambda", "vm"} {
		log := filepath.Join(t.TempDir(), "events.jsonl")
		buf := runCLI(t, "-substrate", substrate, "-pages", "25000", "-max-parallelism", "2",
			"-report", "json", "-eventlog", log)
		var rep profileReport
		if err := json.Unmarshal(buf, &rep); err != nil {
			t.Fatalf("%s: -report json: %v", substrate, err)
		}
		want, err := experiments.Figure4(substrate == "lambda", 1, []int{25_000}, 2, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Points) != len(want) {
			t.Fatalf("%s: %d points, Figure4 has %d", substrate, len(rep.Points), len(want))
		}
		for i, p := range rep.Points {
			w := want[i]
			if p.Pages != w.Pages || p.Parallelism != w.Parallelism ||
				p.ExecTimeUS != w.ExecTime.Microseconds() || p.CostUSD != w.CostUSD {
				t.Errorf("%s point %d = %+v, Figure4 has %+v", substrate, i, p, w)
			}
		}
		events, err := os.ReadFile(log)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range []string{"pagerank-25000-x1", "pagerank-25000-x2"} {
			if !strings.Contains(string(events), `"app":"`+app+`"`) {
				t.Errorf("%s: event log has no app %s", substrate, app)
			}
		}
	}
}
