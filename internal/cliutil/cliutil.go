// Package cliutil holds the flag vocabulary and output helpers shared by
// the splitserve-* commands, so accepted values and validation cannot
// drift between binaries.
package cliutil

import (
	"fmt"
	"os"
	"strings"

	"splitserve/internal/attrib"
	"splitserve/internal/eventlog"
)

// ReportFormats is the accepted -report vocabulary.
var ReportFormats = []string{"json", "prom"}

// EventLogUsage and TraceUsage are the shared help texts for the
// observability output flags every command carries.
const (
	EventLogUsage = "write the structured event log as JSONL to this file (- = stdout); replay with splitserve-history"
	TraceUsage    = "write a Chrome trace-event JSON timeline to this file (- = stdout); open in chrome://tracing or ui.perfetto.dev"
	AttribUsage   = "write the causal attribution report (splitserve-attrib/v1 JSON) to this file (- = stdout); diff with splitserve-history -diff"
)

// ValidateReport checks a -report value against ReportFormats ("" = off).
func ValidateReport(format string) error {
	if format == "" {
		return nil
	}
	for _, f := range ReportFormats {
		if format == f {
			return nil
		}
	}
	return fmt.Errorf("unknown report format %q (accepted: %s)",
		format, strings.Join(ReportFormats, ", "))
}

// WriteOut writes data to path, with "-" meaning stdout and "" a no-op.
func WriteOut(path string, data []byte) error {
	switch path {
	case "":
		return nil
	case "-":
		_, err := os.Stdout.Write(data)
		return err
	default:
		return os.WriteFile(path, data, 0o644)
	}
}

// WriteEventLog writes an event stream as JSONL to path ("" = off,
// "-" = stdout). Commands that run several scenarios concatenate the
// per-run streams; apps stay distinguishable through the events' App
// field. The lines stream to the file through the encoder's own buffer,
// so the log is never held a second time as bytes.
func WriteEventLog(path string, events []eventlog.Event) error {
	switch path {
	case "":
		return nil
	case "-":
		return eventlog.WriteJSONL(os.Stdout, events)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := eventlog.WriteJSONL(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteTrace renders an event stream as Chrome trace-event JSON to path
// ("" = off, "-" = stdout).
func WriteTrace(path string, events []eventlog.Event) error {
	if path == "" {
		return nil
	}
	data, err := eventlog.ChromeTrace(events)
	if err != nil {
		return err
	}
	return WriteOut(path, data)
}

// WriteAttrib runs the causal attribution engine over an event stream
// and writes the splitserve-attrib/v1 report to path ("" = off,
// "-" = stdout).
func WriteAttrib(path string, events []eventlog.Event) error {
	if path == "" {
		return nil
	}
	data, err := attrib.Analyze(events).JSON()
	if err != nil {
		return err
	}
	return WriteOut(path, data)
}
