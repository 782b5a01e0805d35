// Package tracereplay reads the CSV arrival traces behind
// `-arrival tracefile:PATH` and replays them through the sharded control
// plane. A trace comes in one of two shapes: production rows in the
// Azure-Functions / Google-cluster shape of (tenant, arrival, runtime,
// demand), or offset rows that give only an arrival offset, optionally
// with a core pin and a tenant. Both go through one parser (header rows,
// comments, CRLF and out-of-order arrivals tolerated the same way). The
// package also owns a deterministic synthetic multi-tenant trace generator
// (the committed test fixture comes from it) and replay validation that
// compares the merged report's per-tenant tables against the trace's
// empirical distributions.
package tracereplay

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"

	"splitserve/internal/cluster"
	"splitserve/internal/simrand"
	"splitserve/internal/workloads"
	"splitserve/internal/workloads/sparkpi"
)

// Row is one traced job submission.
type Row struct {
	// Tenant is the submitting tenant's id ("" on an offset row without
	// one).
	Tenant string
	// Arrival is the submission offset from the start of the trace.
	Arrival time.Duration
	// Runtime is the job's traced execution time at full provisioning;
	// offset rows carry none (0).
	Runtime time.Duration
	// Cores is the job's core demand; 0 on an offset row means unpinned.
	Cores int
}

// Trace is a parsed trace: rows sorted by arrival (stably, so equal
// arrivals keep file order).
type Trace struct {
	Rows []Row
	// Warnings records non-fatal input oddities (skipped header,
	// out-of-order rows — warned once).
	Warnings []string
}

// Production reports whether the trace holds production rows
// (TENANT,ARRIVAL,RUNTIME,CORES) rather than offset rows, which carry no
// runtime.
func (tr *Trace) Production() bool { return len(tr.Rows) > 0 && tr.Rows[0].Runtime > 0 }

// maxTraceFileBytes caps how much of a trace file is read — a malformed
// path (FIFO, device, huge file) fails fast instead of wedging the CLI.
const maxTraceFileBytes = 1 << 20

// Header is the canonical column header the generator writes and the
// parser skips.
const Header = "tenant,arrival,runtime,cores"

// Parse reads a CSV trace in one of two shapes, picked by the column count
// of the first non-blank, non-comment line (a header row counts):
//
//   - four columns are production rows "TENANT,ARRIVAL,RUNTIME,CORES"
//     (e.g. "t03,90s,45s,4"). ARRIVAL and RUNTIME accept Go durations
//     ("1m30s") or plain numbers meaning seconds ("90.5" — the unit most
//     published traces use).
//   - one to three columns are offset rows "OFFSET", "OFFSET,CORES" or
//     "OFFSET,CORES,TENANT" (e.g. "30s,4,t02"). OFFSET is a Go duration;
//     an empty or missing CORES field ("30s,,t02") means "no pin" and
//     leaves Cores 0. Offset rows have Runtime 0.
//
// Blank lines, '#' comments, leading header rows and CRLF endings are
// tolerated; out-of-order arrivals are sorted with a single warning —
// published traces are frequently sorted by tenant, not time. Malformed
// rows are rejected with their line number.
func Parse(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	// rowOf maps one row's fields to a Row, or reports a header row while
	// no row has been accepted (first); key names the sort column.
	var rowOf func(fields []string, first bool) (r Row, header bool, err error)
	var key string
	sc := bufio.NewScanner(r)
	line := 0
	sorted := true
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text()) // also strips a trailing \r
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		fields := strings.Split(s, ",")
		if rowOf == nil {
			rowOf, key = offsetRow, "offset"
			if len(fields) == 4 {
				rowOf, key = productionRow, "arrival"
			}
		}
		row, header, err := rowOf(fields, len(tr.Rows) == 0)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if header {
			tr.Warnings = append(tr.Warnings, fmt.Sprintf("line %d: skipped header row %q", line, s))
			continue
		}
		if len(tr.Rows) > 0 && row.Arrival < tr.Rows[len(tr.Rows)-1].Arrival {
			sorted = false
		}
		tr.Rows = append(tr.Rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(tr.Rows) == 0 {
		return nil, fmt.Errorf("empty trace")
	}
	if !sorted {
		tr.Warnings = append(tr.Warnings, "arrivals out of order: sorted rows by "+key)
		sort.SliceStable(tr.Rows, func(i, j int) bool { return tr.Rows[i].Arrival < tr.Rows[j].Arrival })
	}
	return tr, nil
}

// productionRow maps "TENANT,ARRIVAL,RUNTIME,CORES". A first row whose
// ARRIVAL or RUNTIME does not parse and whose every field holds a letter
// is a header.
func productionRow(f []string, first bool) (Row, bool, error) {
	if len(f) != 4 {
		return Row{}, false, fmt.Errorf("%d fields (want TENANT,ARRIVAL,RUNTIME,CORES)", len(f))
	}
	tenant := strings.TrimSpace(f[0])
	arrival, aerr := parseDur(f[1])
	runtime, rerr := parseDur(f[2])
	if first && (aerr != nil || rerr != nil) && looksLikeHeader(f) {
		return Row{}, true, nil
	}
	if tenant == "" {
		return Row{}, false, fmt.Errorf("empty tenant")
	}
	if aerr != nil || arrival < 0 {
		return Row{}, false, fmt.Errorf("bad arrival %q", strings.TrimSpace(f[1]))
	}
	if rerr != nil || runtime <= 0 {
		return Row{}, false, fmt.Errorf("bad runtime %q", strings.TrimSpace(f[2]))
	}
	cores, err := strconv.Atoi(strings.TrimSpace(f[3]))
	if err != nil || cores < 1 {
		return Row{}, false, fmt.Errorf("bad cores %q", strings.TrimSpace(f[3]))
	}
	return Row{Tenant: tenant, Arrival: arrival, Runtime: runtime, Cores: cores}, false, nil
}

// offsetRow maps "OFFSET[,CORES[,TENANT]]". A first row whose OFFSET does
// not parse but holds a letter ("offset,cores,tenant") is a header.
func offsetRow(f []string, first bool) (Row, bool, error) {
	if len(f) > 3 {
		return Row{}, false, fmt.Errorf("%d fields (want OFFSET[,CORES[,TENANT]])", len(f))
	}
	off := strings.TrimSpace(f[0])
	d, err := time.ParseDuration(off)
	if err != nil && first && strings.IndexFunc(off, unicode.IsLetter) >= 0 {
		return Row{}, true, nil
	}
	if err != nil || d < 0 {
		return Row{}, false, fmt.Errorf("bad offset %q", off)
	}
	row := Row{Arrival: d}
	if len(f) >= 2 {
		if cs := strings.TrimSpace(f[1]); cs != "" {
			c, err := strconv.Atoi(cs)
			if err != nil || c < 1 {
				return Row{}, false, fmt.Errorf("bad cores %q", cs)
			}
			row.Cores = c
		}
	}
	if len(f) == 3 {
		row.Tenant = strings.TrimSpace(f[2])
	}
	return row, false, nil
}

// parseDur accepts a Go duration ("1m30s") or a bare number of seconds
// ("90.5").
func parseDur(s string) (time.Duration, error) {
	s = strings.TrimSpace(s)
	if secs, err := strconv.ParseFloat(s, 64); err == nil {
		return time.Duration(secs * float64(time.Second)), nil
	}
	return time.ParseDuration(s)
}

func looksLikeHeader(fields []string) bool {
	for _, f := range fields {
		if strings.IndexFunc(strings.TrimSpace(f), unicode.IsLetter) < 0 {
			return false
		}
	}
	return true
}

// Load reads a trace of either shape from path. Only regular files up to
// 1 MiB are accepted.
func Load(path string) (*Trace, error) {
	if path == "" {
		return nil, fmt.Errorf("tracereplay: empty path")
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("tracereplay: %w", err)
	}
	if !fi.Mode().IsRegular() {
		return nil, fmt.Errorf("tracereplay: %s: not a regular file", path)
	}
	if fi.Size() > maxTraceFileBytes {
		return nil, fmt.Errorf("tracereplay: %s: %d bytes exceeds the %d-byte cap", path, fi.Size(), maxTraceFileBytes)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracereplay: %w", err)
	}
	defer f.Close()
	tr, err := Parse(io.LimitReader(f, maxTraceFileBytes))
	if err != nil {
		return nil, fmt.Errorf("tracereplay: %s: %w", path, err)
	}
	return tr, nil
}

// runtimeGrid quantizes traced runtimes so Specs reuses baselines (and
// workload shapes) across jobs with near-identical runtimes: 250 ms
// buckets with a 250 ms floor.
const runtimeGrid = 250 * time.Millisecond

// Specs converts a production trace into cluster job specs: every row becomes a
// sparkpi job sized so its full-provisioning execution time tracks the
// traced runtime (quantized to the 250 ms grid), labelled with the row's
// tenant. Baselines are measured once per distinct (runtime bucket,
// cores) shape and cached, so 10k-row traces need only a handful of
// baseline runs.
func Specs(tr *Trace, seed uint64) ([]cluster.JobSpec, error) {
	if !tr.Production() {
		return nil, fmt.Errorf("tracereplay: specs need production rows (%s)", Header)
	}
	cal := cluster.NewBaselineCache(seed)
	specs := make([]cluster.JobSpec, 0, len(tr.Rows))
	for _, row := range tr.Rows {
		bucket := row.Runtime.Round(runtimeGrid)
		if bucket < runtimeGrid {
			bucket = runtimeGrid
		}
		base, err := cal.Get(bucket.String(), row.Cores, func() workloads.Workload { return replayJob(bucket, row.Cores) })
		if err != nil {
			return nil, fmt.Errorf("tracereplay: %w", err)
		}
		specs = append(specs, cluster.JobSpec{
			Workload: replayJob(bucket, row.Cores),
			Tenant:   row.Tenant,
			Arrival:  row.Arrival,
			Cores:    row.Cores,
			Baseline: base,
		})
	}
	return specs, nil
}

// replayJob builds a sparkpi workload approximating the traced runtime at
// the traced demand: one wave of `cores` tasks, each costing the bucketed
// runtime at the calibrated 0.4 µs/dart rate (the cluster tests' sizing
// rule).
func replayJob(runtime time.Duration, cores int) *sparkpi.Workload {
	partitions := cores
	taskSecs := runtime.Seconds()
	return sparkpi.New(sparkpi.Config{
		Darts:               int64(float64(partitions) * taskSecs * 5e7 / 0.4),
		SampledDartsPerTask: 400_000 / partitions,
		Partitions:          partitions,
		CostPerDart:         0.4,
		Seed:                3,
	})
}

// GenConfig parameterizes the synthetic multi-tenant generator.
type GenConfig struct {
	// Tenants is how many tenants submit (labelled t00, t01, ...).
	Tenants int
	// Jobs is the total row count.
	Jobs int
	// MeanGap is the mean inter-arrival time (exponential draws).
	MeanGap time.Duration
	// MeanRuntime is the mean traced runtime (exponential draws with a
	// 500 ms floor, mimicking the short-job-heavy FaaS runtime shape).
	MeanRuntime time.Duration
	// Seed drives every draw; same config and seed → same trace.
	Seed uint64
}

// Generate draws a deterministic synthetic production trace. Tenant
// popularity is Zipf-distributed (s=1.1), so a few tenants dominate —
// the skew published FaaS traces show, and what makes shard imbalance
// (and thus work-stealing) observable in replay.
func Generate(cfg GenConfig) (*Trace, error) {
	if cfg.Tenants < 1 || cfg.Jobs < 1 {
		return nil, fmt.Errorf("tracereplay: Tenants and Jobs must be >= 1")
	}
	if cfg.MeanGap <= 0 || cfg.MeanRuntime <= 0 {
		return nil, fmt.Errorf("tracereplay: MeanGap and MeanRuntime must be > 0")
	}
	rng := simrand.New(cfg.Seed ^ 0x7ace)
	tr := &Trace{Rows: make([]Row, 0, cfg.Jobs)}
	at := time.Duration(0)
	for i := 0; i < cfg.Jobs; i++ {
		at += time.Duration(rng.Exp(1/cfg.MeanGap.Seconds()) * float64(time.Second))
		runtime := time.Duration(rng.Exp(1/cfg.MeanRuntime.Seconds()) * float64(time.Second))
		if runtime < 500*time.Millisecond {
			runtime = 500 * time.Millisecond
		}
		cores := 2
		if rng.Float64() < 0.3 {
			cores = 4
		}
		tr.Rows = append(tr.Rows, Row{
			Tenant:  fmt.Sprintf("t%02d", rng.Zipf(1.1, cfg.Tenants)-1),
			Arrival: at.Round(time.Millisecond),
			Runtime: runtime.Round(10 * time.Millisecond),
			Cores:   cores,
		})
	}
	return tr, nil
}

// WriteCSV renders the trace in the canonical 4-column shape with a
// header row, durations in seconds (the published-trace convention).
func WriteCSV(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, Header)
	for _, row := range tr.Rows {
		fmt.Fprintf(bw, "%s,%.3f,%.3f,%d\n", row.Tenant, row.Arrival.Seconds(), row.Runtime.Seconds(), row.Cores)
	}
	return bw.Flush()
}
