// Command bench is the simulator's benchmark. It runs one workload in a
// fresh simulation per round and prints one JSON result line. See
// README.md for the workloads, the metrics and how to run it:
//
//	bash bench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// pinnedDigests maps each workload to the sha256 of its report JSON plus
// event-log JSONL at seed 1 and full size. Regenerate with
// `go test -run TestPinnedDigests -update` in this directory.
//
//go:embed testdata/digests.json
var pinnedDigests []byte

const pinnedSeed = 1

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	var usage usageError
	switch {
	case errors.As(err, &usage):
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type usageError struct{ error }

// result is the command's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: steady | burst | shuffle | tenants")
	seed := fs.Uint64("seed", pinnedSeed, "input seed; seed 1 is checked against the pinned digests")
	seconds := fs.Int("seconds", 20, "measure for at least this many seconds")
	rounds := fs.Int("rounds", 3, "measure at least this many rounds")
	trace := fs.Int("trace", 0, "1 adds a traced round and prints the per-layer metrics instead")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for the traced round's trace.json and layers.json")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	w, err := workloadByName(*name)
	if err != nil {
		return usageError{err}
	}
	if *seconds < 1 || *rounds < 1 || (*trace != 0 && *trace != 1) {
		return usageError{errors.New("need -seconds >= 1, -rounds >= 1 and -trace 0 or 1")}
	}
	fmt.Fprintf(stderr, "bench: workload=%s seed=%d jobs=%d GOMAXPROCS=%d\n", w.name, *seed, w.jobs, runtime.GOMAXPROCS(0))

	var problems []error
	check := func(err error) {
		if err != nil {
			fmt.Fprintln(stderr, "bench: check failed:", err)
			problems = append(problems, err)
		}
	}

	// Warm-up: a tenth of the size, checked but not measured.
	warm, err := runRound(w, *seed, max(w.jobs/10, 1), nil)
	if err != nil {
		return err
	}
	check(warm.problem)

	var measured []*roundResult
	start := time.Now()
	for len(measured) < *rounds || time.Since(start) < time.Duration(*seconds)*time.Second {
		r, err := runRound(w, *seed, w.jobs, nil)
		if err != nil {
			return err
		}
		check(r.problem)
		fmt.Fprintf(stderr, "bench: round %d: setup %.4fs run %.4fs export %.4fs heap %.1fMiB\n",
			len(measured)+1, r.setup.Seconds(), r.run.Seconds(), r.export.Seconds(), r.heapRetainedMiB)
		measured = append(measured, r)
	}
	all := measured

	var traced *roundResult
	var tr *tracer
	if *trace == 1 {
		tr = &tracer{run: fmt.Sprintf("%s seed=%d", w.name, *seed)}
		if traced, err = runRound(w, *seed, w.jobs, tr); err != nil {
			return err
		}
		check(traced.problem)
		all = append(all, traced)
	}

	for _, r := range all[1:] {
		if r.digest != all[0].digest {
			check(fmt.Errorf("round digests differ: %s vs %s", r.digest, all[0].digest))
			break
		}
	}
	if *seed == pinnedSeed {
		check(checkPinned(w.name, all[0].digest))
	}

	res := result{Metrics: map[string]metric{}}
	for _, r := range all {
		res.Attempted += r.jobs
		res.Failed += r.failed
	}
	if res.Failed > 0 {
		check(fmt.Errorf("%d of %d jobs failed, were shed or stalled", res.Failed, res.Attempted))
	}
	res.Correct = len(problems) == 0

	med := func(f func(*roundResult) float64) float64 {
		vals := make([]float64, len(measured))
		for i, r := range measured {
			vals[i] = f(r)
		}
		return median(vals)
	}
	if traced == nil {
		values := map[string]float64{
			"jobs_per_s":       med(func(r *roundResult) float64 { return float64(r.jobs-r.failed) / r.run.Seconds() }),
			"setup_s":          med(func(r *roundResult) float64 { return r.setup.Seconds() }),
			"export_s":         med(func(r *roundResult) float64 { return r.export.Seconds() }),
			"heap_retained_mb": med(func(r *roundResult) float64 { return r.heapRetainedMiB }),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{values[d.name], d.unit}
		}
	} else {
		runMedian := med(func(r *roundResult) float64 { return r.run.Seconds() })
		traced.layers["bench.trace_overhead"] = traced.run.Seconds()/runMedian - 1
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{traced.layers[d.name], d.unit}
		}
		if err := writeTraceFiles(*outDir, tr, w.name, *seed, res.Metrics); err != nil {
			return err
		}
	}

	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return fmt.Errorf("%d correctness checks failed", len(problems))
	}
	return nil
}

// checkPinned compares a seed-1 full-size digest with the committed one.
func checkPinned(workload, digest string) error {
	var pinned map[string]string
	if err := json.Unmarshal(pinnedDigests, &pinned); err != nil {
		return fmt.Errorf("pinned digests: %w", err)
	}
	switch want, ok := pinned[workload]; {
	case !ok:
		return fmt.Errorf("no pinned digest for %s", workload)
	case digest != want:
		return fmt.Errorf("%s seed %d digest %s, pinned %s", workload, pinnedSeed, digest, want)
	}
	return nil
}

// writeTraceFiles writes the traced round's coarse spans as a Chrome
// trace and its per-layer metrics as JSON.
func writeTraceFiles(dir string, tr *tracer, workload string, seed uint64, metrics map[string]metric) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace, err := tr.chromeTrace()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.json"), trace, 0o644); err != nil {
		return err
	}
	doc, err := json.MarshalIndent(map[string]any{
		"workload":   workload,
		"seed":       seed,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"metrics":    metrics,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(doc, '\n'), 0o644)
}

func median(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
