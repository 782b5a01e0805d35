package main

import (
	"bytes"
	"fmt"
	"html"
	"sort"

	"splitserve/internal/eventlog"
	"splitserve/internal/perfstat"
)

// Timeline geometry and palette. The page is server-rendered inline SVG —
// no JavaScript — so it works in any browser and in CI artifact previews.
const (
	svgWidth   = 1000
	rowHeight  = 22
	rowGap     = 4
	labelWidth = 230

	colorVM        = "#4c9a52" // green, matches the trace's thread_state_running
	colorLambda    = "#e08c3c" // orange, matches thread_state_iowait
	colorFailed    = "#c0392b"
	colorLifetime  = "#e8e8e8"
	colorStraggler = "#c0392b"
)

// renderHTML builds the minimal timeline page: one row per executor with
// its lifetime in grey and each task as a slice colored by backend;
// stragglers get a red outline. Below the chart, the analytics tables are
// embedded verbatim.
func renderHTML(a *eventlog.Analysis) []byte {
	endUS := a.EndUS
	if endUS <= 0 {
		endUS = 1
	}
	x := func(us int64) float64 {
		return float64(us) / float64(endUS) * svgWidth
	}

	// Tasks per (app, exec) row.
	type rowKey struct{ app, exec string }
	tasks := map[rowKey][]eventlog.TaskStat{}
	for _, s := range a.Stages {
		for _, t := range s.Tasks {
			k := rowKey{t.App, t.Exec}
			tasks[k] = append(tasks[k], t)
		}
	}

	var svg bytes.Buffer
	height := len(a.Executors)*(rowHeight+rowGap) + rowGap
	fmt.Fprintf(&svg, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`,
		labelWidth+svgWidth+10, height)
	for i, ex := range a.Executors {
		y := rowGap + i*(rowHeight+rowGap)
		label := ex.Exec
		if ex.App != "" {
			label = ex.App + " / " + ex.Exec
		}
		fmt.Fprintf(&svg, `<text x="%d" y="%d">%s</text>`,
			4, y+rowHeight-7, html.EscapeString(trunc(label, 34)))

		// Lifetime band.
		x0, x1 := x(ex.AddUS), x(ex.RemoveUS)
		if x1 <= x0 {
			x1 = x0 + 1
		}
		fmt.Fprintf(&svg, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s"/>`,
			float64(labelWidth)+x0, y, x1-x0, rowHeight, colorLifetime)

		// Task slices.
		for _, t := range tasks[rowKey{ex.App, ex.Exec}] {
			tx := x(t.StartUS)
			tw := x(t.StartUS+t.DurUS) - tx
			if tw < 1 {
				tw = 1
			}
			fill := colorVM
			if t.Kind == "lambda" {
				fill = colorLambda
			}
			if t.Failed {
				fill = colorFailed
			}
			stroke := ""
			if t.Straggler {
				stroke = fmt.Sprintf(` stroke="%s" stroke-width="2"`, colorStraggler)
			}
			fmt.Fprintf(&svg,
				`<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s"%s><title>%s</title></rect>`,
				float64(labelWidth)+tx, y+2, tw, rowHeight-4, fill, stroke,
				html.EscapeString(fmt.Sprintf("stage %d task %d on %s (%s): %s",
					t.Stage, t.Task, t.Exec, kindOrDash2(t.Kind), durLabel(t.DurUS))))
		}
	}
	fmt.Fprint(&svg, `</svg>`)

	var b bytes.Buffer
	b.WriteString(`<!DOCTYPE html><html><head><meta charset="utf-8"><title>splitserve-history</title>
<style>
body { font-family: monospace; margin: 1.5em; }
pre  { background: #f6f6f6; padding: 1em; overflow-x: auto; }
.legend span { display: inline-block; width: 12px; height: 12px; margin: 0 4px 0 12px; vertical-align: middle; }
</style></head><body>
<h1>splitserve-history</h1>
<p><a href="/trace">trace.json</a> (open in <a href="https://ui.perfetto.dev">ui.perfetto.dev</a> or chrome://tracing)
 &middot; <a href="/analysis">analysis</a> &middot; <a href="/log">event log</a> &middot; <a href="/perf">self-profiling</a></p>
<p class="legend">
<span style="background:` + colorVM + `"></span>VM task
<span style="background:` + colorLambda + `"></span>Lambda task
<span style="background:` + colorFailed + `"></span>failed
<span style="border:2px solid ` + colorStraggler + `"></span>straggler
<span style="background:` + colorLifetime + `"></span>executor lifetime
</p>
`)
	b.Write(svg.Bytes())
	b.WriteString("\n<h2>analytics</h2>\n<pre>")
	b.WriteString(html.EscapeString(a.String()))
	b.WriteString("</pre>\n</body></html>\n")
	return b.Bytes()
}

// renderPerfHTML builds the /perf page from a perfstat snapshot: headline
// throughput numbers, the clock/heap counters, the occupancy split as a
// stacked bar, and the raw JSON for copy-paste — wall-clock data, clearly
// labelled as outside the deterministic replay guarantee.
func renderPerfHTML(s *perfstat.Snapshot) []byte {
	var b bytes.Buffer
	b.WriteString(`<!DOCTYPE html><html><head><meta charset="utf-8"><title>splitserve-history · self-profiling</title>
<style>
body { font-family: monospace; margin: 1.5em; }
pre  { background: #f6f6f6; padding: 1em; overflow-x: auto; }
table { border-collapse: collapse; }
td, th { border: 1px solid #ccc; padding: 3px 10px; text-align: right; }
th { background: #f0f0f0; }
td:first-child, th:first-child { text-align: left; }
.note { color: #777; }
</style></head><body>
<h1>self-profiling</h1>
<p><a href="/">timeline</a> &middot; <a href="/analysis">analysis</a> &middot; <a href="/log">event log</a></p>
<p class="note">Host-side wall-clock measurements ("deterministic": false) — the cost of computing
the simulation, not part of it. Same-seed reports and event logs are unaffected by collection.</p>
`)
	if s == nil {
		b.WriteString(`<p>No self-profiling data. Run with <code>-perf</code> for an inline run,
or point <code>-perfin</code> at a snapshot saved by any command's <code>-perf FILE</code>.</p>
</body></html>
`)
		return b.Bytes()
	}

	fmt.Fprintf(&b, `<h2>throughput</h2>
<table>
<tr><th>metric</th><th>value</th></tr>
<tr><td>wall time</td><td>%.3fs</td></tr>
<tr><td>events fired</td><td>%d</td></tr>
<tr><td>events/sec</td><td>%.0f</td></tr>
<tr><td>allocs/event</td><td>%.1f</td></tr>
<tr><td>bytes/event</td><td>%.0f</td></tr>
<tr><td>workload yields</td><td>%d</td></tr>
</table>
`, s.WallSeconds, s.EventsFired, s.EventsPerSec, s.AllocsPerEvent, s.BytesPerEvent, s.Yields)

	fmt.Fprintf(&b, `<h2>event queue</h2>
<table>
<tr><th>counter</th><th>value</th></tr>
<tr><td>queue high water</td><td>%d</td></tr>
<tr><td>timers cancelled</td><td>%d</td></tr>
<tr><td>ghost entries live</td><td>%d</td></tr>
<tr><td>compactions</td><td>%d</td></tr>
</table>
`, s.Clock.HeapHighWater, s.Clock.Cancelled, s.Clock.GhostsLive, s.Clock.Compactions)

	fmt.Fprintf(&b, `<h2>wall-clock latencies (µs)</h2>
<table>
<tr><th>path</th><th>count</th><th>p50</th><th>p99</th><th>max</th></tr>
<tr><td>clock step</td><td>%d</td><td>%.1f</td><td>%.1f</td><td>%.1f</td></tr>
<tr><td>workload resume</td><td>%d</td><td>%.1f</td><td>%.1f</td><td>%.1f</td></tr>
</table>
`, s.StepWall.Count, s.StepWall.P50US, s.StepWall.P99US, s.StepWall.MaxUS,
		s.HandoffWall.Count, s.HandoffWall.P50US, s.HandoffWall.P99US, s.HandoffWall.MaxUS)

	// Occupancy as a stacked bar: step / handoff / other.
	occ := s.Occupancy
	fmt.Fprintf(&b, `<h2>clock-loop occupancy</h2>
<svg width="600" height="28">
<rect x="0" y="0" width="%.1f" height="28" fill="%s"><title>step %.1f%%</title></rect>
<rect x="%.1f" y="0" width="%.1f" height="28" fill="%s"><title>handoff %.1f%%</title></rect>
<rect x="%.1f" y="0" width="%.1f" height="28" fill="%s"><title>other %.1f%%</title></rect>
</svg>
<p class="legend">
<span style="display:inline-block;width:12px;height:12px;background:%s"></span> step %.1f%%
<span style="display:inline-block;width:12px;height:12px;background:%s;margin-left:12px"></span> handoff %.1f%%
<span style="display:inline-block;width:12px;height:12px;background:%s;margin-left:12px"></span> other %.1f%%
</p>
`,
		600*occ.StepFraction, colorVM, 100*occ.StepFraction,
		600*occ.StepFraction, 600*occ.HandoffFraction, colorLambda, 100*occ.HandoffFraction,
		600*(occ.StepFraction+occ.HandoffFraction), 600*occ.OtherFraction, colorLifetime, 100*occ.OtherFraction,
		colorVM, 100*occ.StepFraction, colorLambda, 100*occ.HandoffFraction, colorLifetime, 100*occ.OtherFraction)

	if s.RunQueue.Samples > 0 {
		fmt.Fprintf(&b, `<h2>cluster run queue</h2>
<table>
<tr><th>samples</th><th>mean depth</th><th>max depth</th></tr>
<tr><td>%d</td><td>%.2f</td><td>%d</td></tr>
</table>
`, s.RunQueue.Samples, s.RunQueue.Mean, s.RunQueue.Max)
	}

	if len(s.EventTypes) > 0 {
		b.WriteString("<h2>events by subsystem</h2>\n<table>\n<tr><th>subsystem</th><th>type</th><th>count</th></tr>\n")
		subs := make([]string, 0, len(s.EventTypes))
		for sub := range s.EventTypes {
			subs = append(subs, sub)
		}
		sort.Strings(subs)
		for _, sub := range subs {
			types := make([]string, 0, len(s.EventTypes[sub]))
			for t := range s.EventTypes[sub] {
				types = append(types, t)
			}
			sort.Strings(types)
			for _, t := range types {
				fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%d</td></tr>\n",
					html.EscapeString(sub), html.EscapeString(t), s.EventTypes[sub][t])
			}
		}
		b.WriteString("</table>\n")
	}

	if raw, err := s.JSON(); err == nil {
		b.WriteString("<h2>raw snapshot</h2>\n<pre>")
		b.WriteString(html.EscapeString(string(raw)))
		b.WriteString("</pre>\n")
	}
	b.WriteString("</body></html>\n")
	return b.Bytes()
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func kindOrDash2(k string) string {
	if k == "" {
		return "-"
	}
	return k
}

func durLabel(us int64) string {
	switch {
	case us >= 1_000_000:
		return fmt.Sprintf("%.2fs", float64(us)/1e6)
	case us >= 1_000:
		return fmt.Sprintf("%dms", us/1_000)
	default:
		return fmt.Sprintf("%dµs", us)
	}
}
