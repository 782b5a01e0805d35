// Command splitserve-history is the repo's history server: it replays a
// saved event log (or runs a scenario inline) and renders straggler
// analytics, Chrome-trace timelines, and an HTML timeline view — the
// Spark History Server analogue for the simulator.
//
//	splitserve-sim -workload pagerank -eventlog events.jsonl
//	splitserve-history -log events.jsonl                  # analytics tables
//	splitserve-history -log events.jsonl -trace out.json  # Chrome trace for ui.perfetto.dev
//	splitserve-history -log events.jsonl -serve :8080     # timeline over HTTP
//	splitserve-history -log events.jsonl -attrib rep.json # causal attribution report
//	splitserve-history -diff old.json new.json            # per-cause attribution deltas
//	splitserve-history -workload kmeans -scenario hybrid  # run inline, no saved log
package main

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"

	"splitserve"
	"splitserve/internal/attrib"
	"splitserve/internal/cliutil"
	"splitserve/internal/eventlog"
	"splitserve/internal/perfstat"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		logPath  = flag.String("log", "", "event log (JSONL) to replay; - = stdin (default: run a scenario inline)")
		workload = flag.String("workload", "pagerank", "inline run: "+strings.Join(cliutil.WorkloadNames, " | "))
		scenario = flag.String("scenario", "hybrid", "inline run: "+strings.Join(cliutil.ScenarioNames(), " | "))
		r        = flag.Int("r", 0, "inline run: required cores R (0 = workload default)")
		small    = flag.Int("small", 0, "inline run: free VM cores r (0 = max(1, R/4))")
		seed     = flag.Uint64("seed", 1, "inline run: simulation seed")
		factor   = flag.Float64("factor", eventlog.DefaultStragglerFactor,
			"straggler cut as a multiple of the stage median task duration")
		trace      = flag.String("trace", "", cliutil.TraceUsage)
		attribF    = flag.String("attrib", "", cliutil.AttribUsage)
		attribHTML = flag.String("attribhtml", "", "write the /attrib waterfall page as standalone HTML to this file (- = stdout)")
		diffMode   = flag.Bool("diff", false, "compare two runs: splitserve-history -diff OLD NEW, where each is an attribution report (JSON) or an event log (JSONL)")
		serve      = flag.String("serve", "", "serve the timeline over HTTP at this address (e.g. :8080) instead of printing")
		perfin     = flag.String("perfin", "", "saved perfstat snapshot (from any command's -perf) to render on the /perf page")
	)
	perf := cliutil.RegisterPerfFlags(nil)
	flag.Parse()

	if *diffMode {
		return runDiff(flag.Args())
	}

	perf.Label = "history"
	prof, err := perf.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-history:", err)
		return 2
	}
	defer perf.Stop()

	events, err := loadEvents(*logPath, *workload, *scenario, *r, *small, *seed, prof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-history:", err)
		return 1
	}
	if len(events) == 0 {
		fmt.Fprintln(os.Stderr, "splitserve-history: event log is empty")
		return 1
	}
	if err := cliutil.WriteTrace(*trace, events); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-history:", err)
		return 1
	}
	if err := cliutil.WriteAttrib(*attribF, events); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-history:", err)
		return 1
	}

	analysis := eventlog.Analyze(events, *factor)
	attribution := attrib.Analyze(events)
	if *attribHTML != "" {
		if err := cliutil.WriteOut(*attribHTML, renderAttribHTML(attribution)); err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-history:", err)
			return 1
		}
	}

	// The /perf page renders a saved snapshot (-perfin) or, failing that,
	// the profile of this process's own inline run (-perf).
	var snap *perfstat.Snapshot
	if *perfin != "" {
		buf, err := os.ReadFile(*perfin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-history:", err)
			return 1
		}
		if snap, err = perfstat.ParseSnapshot(buf); err != nil {
			fmt.Fprintf(os.Stderr, "splitserve-history: %s: %v\n", *perfin, err)
			return 1
		}
	} else if prof != nil {
		snap = prof.Snapshot()
	}
	if err := perf.WriteSnapshot(prof); err != nil {
		fmt.Fprintln(os.Stderr, "splitserve-history:", err)
		return 1
	}

	if *serve != "" {
		fmt.Fprintf(os.Stderr, "splitserve-history: serving %d events on http://%s/ (/, /trace, /analysis, /attrib, /log, /perf)\n",
			len(events), strings.TrimPrefix(*serve, ":"))
		if err := serveHistory(*serve, events, analysis, attribution, snap); err != nil {
			fmt.Fprintln(os.Stderr, "splitserve-history:", err)
			return 1
		}
		return 0
	}

	fmt.Printf("replayed %d events spanning %s\n\n", len(events), spanOf(events))
	fmt.Print(analysis.String())
	return 0
}

// loadEvents reads a saved JSONL log, or runs the requested scenario
// inline when no log is given.
func loadEvents(path, workload, scenario string, r, small int, seed uint64, prof *perfstat.Collector) ([]eventlog.Event, error) {
	if path == "-" {
		return eventlog.ReadJSONL(os.Stdin)
	}
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return eventlog.ReadJSONL(f)
	}

	kind, err := cliutil.ParseScenario(scenario)
	if err != nil {
		return nil, err
	}
	w, err := cliutil.BuildWorkload(workload, seed)
	if err != nil {
		return nil, err
	}
	opts := []splitserve.Option{splitserve.WithSeed(seed)}
	if prof != nil {
		opts = append(opts, splitserve.WithSelfProfile(prof))
	}
	opts = append(opts, splitserve.WithCores(cliutil.Cores(w, r, small)))
	res, err := splitserve.Run(kind, w, opts...)
	if err != nil {
		return nil, err
	}
	return res.Events(), nil
}

func spanOf(events []eventlog.Event) string {
	var max int64
	for _, e := range events {
		if e.TS > max {
			max = e.TS
		}
	}
	return fmt.Sprintf("%.2fs of virtual time", float64(max)/1e6)
}

// serveHistory exposes the replayed run over HTTP: an HTML timeline at /,
// the Chrome trace JSON at /trace, the analytics text at /analysis, the
// causal-attribution waterfall at /attrib, the raw log at /log, and
// host-side self-profiling at /perf.
func serveHistory(addr string, events []eventlog.Event, analysis *eventlog.Analysis, attribution *attrib.Report, snap *perfstat.Snapshot) error {
	traceJSON, err := eventlog.ChromeTrace(events)
	if err != nil {
		return err
	}
	page := renderHTML(analysis)
	analysisText := analysis.String()
	attribPage := renderAttribHTML(attribution)
	perfPage := renderPerfHTML(snap)

	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(page)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
		w.Write(traceJSON)
	})
	mux.HandleFunc("/analysis", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, analysisText)
	})
	mux.HandleFunc("/log", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		eventlog.WriteJSONL(w, events)
	})
	mux.HandleFunc("/attrib", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(attribPage)
	})
	mux.HandleFunc("/perf", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(perfPage)
	})
	return http.ListenAndServe(addr, mux)
}

// runDiff implements -diff OLD NEW: each argument is either a saved
// splitserve-attrib/v1 report or an event log (JSONL), which is
// attributed on the fly. The per-cause comparison prints as a table;
// the exit code is 0 either way (a nonzero delta is not an error).
func runDiff(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "splitserve-history: -diff needs exactly two arguments: OLD NEW")
		return 2
	}
	old, err := loadReport(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "splitserve-history: %s: %v\n", args[0], err)
		return 1
	}
	new, err := loadReport(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "splitserve-history: %s: %v\n", args[1], err)
		return 1
	}
	fmt.Print(attrib.DiffReports(old, new).String())
	return 0
}

// loadReport reads path as an attribution report, falling back to
// replaying it as an event log and attributing that.
func loadReport(path string) (*attrib.Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if rep, err := attrib.ParseReport(buf); err == nil {
		return rep, nil
	}
	events, err := eventlog.ReadJSONL(bytes.NewReader(buf))
	if err != nil {
		return nil, fmt.Errorf("neither an attribution report nor an event log: %w", err)
	}
	return attrib.Analyze(events), nil
}
