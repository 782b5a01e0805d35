package cliutil

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"splitserve/internal/perfstat"
)

// PerfUsage is the shared help text for the -perf flag every command
// carries.
const (
	PerfUsage       = "write a host-side self-profiling snapshot (perfstat JSON) to this file (- = stdout); wall-clock data, never affects simulation output"
	CPUProfileUsage = "write a pprof CPU profile to this file"
	MemProfileUsage = "write a pprof heap profile to this file"
	CommitUsage     = "git commit hash stamped into perf outputs for trajectory provenance (default: $SPLITSERVE_COMMIT); comparisons ignore it"
)

// CommitFromEnv is the -commit default: the SPLITSERVE_COMMIT
// environment variable, so CI can stamp every perf artifact without
// threading the hash through each invocation.
func CommitFromEnv() string {
	return os.Getenv("SPLITSERVE_COMMIT")
}

// PerfFlags bundles the self-profiling flags (-perf, -cpuprofile,
// -memprofile) shared by all splitserve-* commands. Register on a FlagSet
// (or the default set), Start after flag.Parse, and Stop before writing
// the final outputs:
//
//	perf := cliutil.RegisterPerfFlags(nil)
//	flag.Parse()
//	prof, err := perf.Start()   // validates paths before any work runs
//	...
//	defer perf.Stop()           // or call explicitly before snapshotting
//	... perf.WriteSnapshot()
type PerfFlags struct {
	Perf       string
	CPUProfile string
	MemProfile string
	// Commit is the -commit provenance stamp (default $SPLITSERVE_COMMIT);
	// Label is set programmatically by the command (its config label) —
	// both land in the snapshot, neither affects any comparison.
	Commit string
	Label  string

	cpuFile *os.File
}

// RegisterPerfFlags registers -perf, -cpuprofile, -memprofile and
// -commit on fs (nil = the default flag.CommandLine set) and returns
// the bundle.
func RegisterPerfFlags(fs *flag.FlagSet) *PerfFlags {
	if fs == nil {
		fs = flag.CommandLine
	}
	p := &PerfFlags{}
	fs.StringVar(&p.Perf, "perf", "", PerfUsage)
	fs.StringVar(&p.CPUProfile, "cpuprofile", "", CPUProfileUsage)
	fs.StringVar(&p.MemProfile, "memprofile", "", MemProfileUsage)
	fs.StringVar(&p.Commit, "commit", CommitFromEnv(), CommitUsage)
	return p
}

// Enabled reports whether any self-profiling output was requested.
func (p *PerfFlags) Enabled() bool {
	return p.Perf != "" || p.CPUProfile != "" || p.MemProfile != ""
}

// Start validates every requested output path *before* the run (so a
// long simulation cannot die at the end on an unwritable path), begins
// CPU profiling if asked, and returns the perfstat collector to wire into
// the run — nil (a valid no-op collector) when -perf is off.
func (p *PerfFlags) Start() (*perfstat.Collector, error) {
	for _, path := range []string{p.Perf, p.CPUProfile, p.MemProfile} {
		if err := checkWritable(path); err != nil {
			return nil, err
		}
	}
	if p.CPUProfile != "" {
		f, err := os.Create(p.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		p.cpuFile = f
	}
	if p.Perf == "" {
		return nil, nil
	}
	return perfstat.New(), nil
}

// Stop finishes CPU profiling and writes the heap profile, if requested.
// Safe to call more than once.
func (p *PerfFlags) Stop() error {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		err := p.cpuFile.Close()
		p.cpuFile = nil
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if p.MemProfile != "" {
		f, err := os.Create(p.MemProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		p.MemProfile = "" // written once
	}
	return nil
}

// WriteSnapshot stops profiling and writes prof's snapshot to the -perf
// path ("-" = stdout). A nil collector or empty path is a no-op, so
// commands call this unconditionally at exit.
func (p *PerfFlags) WriteSnapshot(prof *perfstat.Collector) error {
	if err := p.Stop(); err != nil {
		return err
	}
	if p.Perf == "" || prof == nil {
		return nil
	}
	snap := prof.Snapshot()
	snap.Commit = p.Commit
	snap.Label = p.Label
	buf, err := snap.JSON()
	if err != nil {
		return err
	}
	return WriteOut(p.Perf, buf)
}

// checkWritable verifies path can be created/written without leaving a
// file behind ("" and "-" always pass). Existing files are left intact;
// files we create to probe are removed again.
func checkWritable(path string) error {
	if path == "" || path == "-" {
		return nil
	}
	if _, err := os.Stat(path); err == nil {
		f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("output path %s not writable: %w", path, err)
		}
		return f.Close()
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("output path %s not writable: %w", path, err)
	}
	f.Close()
	return os.Remove(path)
}
