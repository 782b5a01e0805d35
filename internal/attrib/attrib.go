// Package attrib is observability layer 4: causal critical-path
// attribution over a finished event log. Layers 1–3 (telemetry, the
// eventlog, perfstat) record *what* happened; this package answers *why
// the makespan is what it is* — it walks each job's task intervals
// backward from completion on the virtual clock, extracts the critical
// path, and tiles the whole [arrival, end] window with blame segments
// drawn from a closed cause vocabulary. Because the segments tile the
// window gaplessly, the per-cause blame sums to the makespan exactly —
// the invariant the property tests enforce — and the same-seed
// byte-identical guarantee of the event log carries over to the
// attribution report.
//
// The report aggregates jobs into per-tenant, per-backend and
// per-workload tables and serialises under the splitserve-attrib/v1
// schema; Diff compares two reports cause by cause (run-to-run diffing:
// "the warm pool moved 6 s of lambda_cold_start into warm_hit_saved").
package attrib

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"splitserve/internal/billing"
	"splitserve/internal/eventlog"
)

// SchemaV1 identifies the attribution report JSON layout. Fields are
// only ever added, never renamed or removed, within a schema version.
const SchemaV1 = "splitserve-attrib/v1"

// Cause is one entry of the closed blame vocabulary. Blame causes carry
// virtual time that sums to the job's makespan; savings causes
// (warm_hit_saved, tmp_cache_saved) are counterfactual time the run did
// NOT spend and live outside the sum.
type Cause string

const (
	// QueueWait is time between arrival and admission under the greedy
	// admission policy: the job sat in the scheduler queue for cores.
	QueueWait Cause = "queue_wait"
	// AdmissionDelay is the same window when the deadline admission
	// policy deliberately delayed the job (cluster_job_delay events).
	AdmissionDelay Cause = "admission_delay"
	// VMBoot is critical-path time spent waiting for a VM-backed
	// executor to register.
	VMBoot Cause = "vm_boot"
	// LambdaColdStart is critical-path time waiting for a Lambda-backed
	// executor to register (cold or warm start — the warm remainder
	// after the pool shaved the cold start off).
	LambdaColdStart Cause = "lambda_cold_start"
	// WarmHitSaved is a savings cause: the counterfactual cold-start
	// time a warm-pool hit on the critical path avoided.
	WarmHitSaved Cause = "warm_hit_saved"
	// Compute is critical-path task execution time net of modeled
	// shuffle I/O and straggler excess, plus scheduler/stage overhead
	// gaps between critical tasks.
	Compute Cause = "compute"
	// ShuffleWrite / ShuffleFetch are modeled shuffle I/O time within
	// critical tasks: bytes moved at the nominal fabric bandwidth.
	ShuffleWrite Cause = "shuffle_write"
	ShuffleFetch Cause = "shuffle_fetch"
	// TmpCacheSaved is a savings cause: modeled fetch time that /tmp
	// cache hits avoided (run-level — cache hits are not job-scoped).
	TmpCacheSaved Cause = "tmp_cache_saved"
	// StragglerTail is the excess of a critical straggler task over its
	// stage median (the Spark speculation rule's excess).
	StragglerTail Cause = "straggler_tail"
	// PreemptOverhead is reserved for the ROADMAP's checkpoint/restart
	// work; always zero today, present so the schema will not change.
	PreemptOverhead Cause = "preempt_overhead"
)

// causeOrder is the vocabulary in canonical (report) order; a cause's
// position in it is its place in a CauseUS or CauseUSD column.
var causeOrder = [...]Cause{
	QueueWait, AdmissionDelay, VMBoot, LambdaColdStart, WarmHitSaved,
	Compute, ShuffleWrite, ShuffleFetch, TmpCacheSaved, StragglerTail,
	PreemptOverhead,
}

// Causes lists the vocabulary in canonical (report) order.
var Causes = causeOrder[:]

const numCauses = len(causeOrder)

// causeIndex returns c's position in Causes.
func causeIndex(c Cause) int {
	return slices.Index(causeOrder[:], c)
}

// Column positions and sets used outside a loop over Causes.
var (
	warmHitSavedIdx  = causeIndex(WarmHitSaved)
	tmpCacheSavedIdx = causeIndex(TmpCacheSaved)
	// blameCauses has the bit of every blame (non-savings) cause set.
	blameCauses = func() causeSet {
		var set causeSet
		for i, c := range causeOrder {
			if !c.Savings() {
				set |= 1 << i
			}
		}
		return set
	}()
)

// Savings reports whether c is a counterfactual-savings cause, excluded
// from the blame-sums-to-makespan invariant.
func (c Cause) Savings() bool { return c == WarmHitSaved || c == TmpCacheSaved }

// Nominal model constants used where the event log records an instant
// with bytes but no duration (shuffle and /tmp cache events) or where a
// counterfactual needs a magnitude (warm-hit savings). They mirror the
// cloud package defaults and the paper's 2020 platform numbers.
const (
	// NominalShuffleBytesPerSec is the fabric bandwidth used to convert
	// shuffle/cache bytes into modeled seconds (~128 MiB/s).
	NominalShuffleBytesPerSec = 128 << 20
	// NominalColdStartUS / NominalWarmStartUS are the Lambda launch
	// latencies a warm hit trades (the cloud package's 8 s / 100 ms).
	NominalColdStartUS = 8_000_000
	NominalWarmStartUS = 100_000
	// NominalVMUSDPerCoreHour is the m4-family per-vCPU-hour price used
	// to reconstruct dollars from executor lifetimes in the log.
	NominalVMUSDPerCoreHour = 0.05
	// NominalLambdaMemoryGB prices Lambda executor seconds at the
	// billing GB-second rate.
	NominalLambdaMemoryGB = 1.5
)

// Segment is one span of a job's critical path, tagged with the cause
// that owns its duration. Segments are reported in time order and tile
// [arrival, end] without gaps or overlaps.
type Segment struct {
	Cause   Cause  `json:"cause"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	Stage   int    `json:"stage"`
	Task    int    `json:"task"`
	Exec    string `json:"exec,omitempty"`
	Kind    string `json:"kind,omitempty"` // "vm" | "lambda"
	Detail  string `json:"detail,omitempty"`
}

// DurUS returns the segment's duration.
func (s Segment) DurUS() int64 { return s.EndUS - s.StartUS }

// JobAttribution is one job's causal decomposition: the critical path
// as segments plus the per-cause blame, savings and dollar columns.
//
// BlameUS holds every blame cause, zeros included, and its values sum to
// MakespanUS exactly. SavedUS holds savings causes: counterfactual
// microseconds avoided. CostUSD splits the job's reconstructed dollars
// proportionally to blame time. Each column encodes as the JSON object
// keyed by cause name of the splitserve-attrib/v1 schema; an empty
// SavedUS or CostUSD is left out through encoding/json's omitzero, which
// needs go.mod's go1.24.0 toolchain (an older encoding/json would write
// it as {}).
type JobAttribution struct {
	App        string    `json:"app"`
	Name       string    `json:"name,omitempty"` // workload name
	Tenant     string    `json:"tenant,omitempty"`
	ArrivalUS  int64     `json:"arrival_us"`
	EndUS      int64     `json:"end_us"`
	MakespanUS int64     `json:"makespan_us"`
	Failed     bool      `json:"failed,omitempty"`
	BlameUS    CauseUS   `json:"blame_us"`
	SavedUS    CauseUS   `json:"saved_us,omitzero"`
	CostUSD    CauseUSD  `json:"cost_usd,omitzero"`
	Path       []Segment `json:"path"`
}

// BlameSumUS returns the sum of all blame components (savings excluded).
func (j *JobAttribution) BlameSumUS() int64 {
	var sum int64
	for i := range numCauses {
		if blameCauses&(1<<i) != 0 {
			sum += j.BlameUS.v[i]
		}
	}
	return sum
}

// Table aggregates blame across a set of jobs (per tenant, backend,
// workload, or the whole run), in the same fixed cause columns as
// JobAttribution and with the same JSON form. BlameUS is always written,
// empty or not; SavedUS and CostUSD only when they hold a key, through
// omitzero and so, as for JobAttribution, on go.mod's go1.24.0 toolchain.
type Table struct {
	Jobs       int      `json:"jobs"`
	MakespanUS int64    `json:"makespan_us"`
	BlameUS    CauseUS  `json:"blame_us"`
	SavedUS    CauseUS  `json:"saved_us,omitzero"`
	CostUSD    CauseUSD `json:"cost_usd,omitzero"`
}

// Dominant returns the blame cause carrying the most time in the table
// (savings excluded) and its microseconds; ties break in canonical cause
// order so the answer is deterministic. Returns ("", 0) for an empty
// table.
func (t *Table) Dominant() (Cause, int64) {
	var best Cause
	var bestV int64 = -1
	for i, c := range causeOrder {
		if c.Savings() {
			continue
		}
		if v := t.BlameUS.v[i]; v > bestV {
			best, bestV = c, v
		}
	}
	if bestV <= 0 {
		return "", 0
	}
	return best, bestV
}

// addJob folds one job's columns into the table. Dollars are rounded
// after every job, in job order.
func (t *Table) addJob(j *JobAttribution) {
	t.Jobs++
	t.MakespanUS += j.MakespanUS
	for i := range numCauses {
		t.BlameUS.v[i] += j.BlameUS.v[i]
		t.SavedUS.v[i] += j.SavedUS.v[i]
		if j.CostUSD.set&(1<<i) != 0 {
			t.CostUSD.v[i] = round6(t.CostUSD.v[i] + j.CostUSD.v[i])
		}
	}
	t.BlameUS.set |= j.BlameUS.set
	t.SavedUS.set |= j.SavedUS.set
	t.CostUSD.set |= j.CostUSD.set
}

// Report is the full splitserve-attrib/v1 document: every job's
// decomposition plus the aggregate tables. In memory each job and table
// holds fixed cause columns (read with Get, or loop over Causes); the
// JSON is the v1 schema unchanged, each column an object keyed by cause
// name.
type Report struct {
	Schema string           `json:"schema"`
	Jobs   []JobAttribution `json:"jobs"`
	Totals *Table           `json:"totals"`
	// ByTenant groups jobs by submitting tenant: the true tenant id when
	// the log carries shard_assign/shard_steal events (sharded
	// multi-tenant runs), the per-job app prefix otherwise — one tenant
	// per submission. ByBackend groups critical-path blame by the
	// executor substrate that hosted it ("vm" | "lambda" | "driver" for
	// segments owned by no executor). ByWorkload groups by job name.
	ByTenant   map[string]*Table `json:"by_tenant,omitempty"`
	ByBackend  map[string]*Table `json:"by_backend,omitempty"`
	ByWorkload map[string]*Table `json:"by_workload,omitempty"`
}

// JSON renders the report as indented, key-sorted JSON with a trailing
// newline. Same-seed runs produce byte-identical output.
func (r *Report) JSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ParseReport loads a report written by JSON, rejecting other schemas and
// cause keys outside the vocabulary.
func ParseReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("attrib: %w", err)
	}
	if r.Schema != SchemaV1 {
		return nil, fmt.Errorf("attrib: unknown schema %q (want %s)", r.Schema, SchemaV1)
	}
	return &r, nil
}

// Analyze runs the causal pass over a finished event stream and returns
// the aggregated report. The unit of attribution is the application (one
// cluster job = one app; an engine-only log is one app with several
// Spark jobs inside it).
func Analyze(events []eventlog.Event) *Report {
	rep := &Report{Schema: SchemaV1, Jobs: []JobAttribution{}, Totals: &Table{}}
	jobs, tmpBytes := attributeJobs(events)
	if len(jobs) == 0 {
		return rep
	}
	rep.Jobs = jobs

	// Backend tables carry blame splits only, no job counts.
	totals := rep.Totals
	rep.ByTenant = map[string]*Table{}
	rep.ByBackend = map[string]*Table{}
	rep.ByWorkload = map[string]*Table{}
	for i := range jobs {
		j := &jobs[i]
		totals.addJob(j)
		row(rep.ByTenant, j.Tenant).addJob(j)
		row(rep.ByWorkload, nameOr(j.Name, j.App)).addJob(j)
		for _, seg := range j.Path {
			backend := seg.Kind
			if backend == "" {
				backend = "driver"
			}
			row(rep.ByBackend, backend).BlameUS.add(causeIndex(seg.Cause), seg.DurUS())
		}
	}
	// Run-level /tmp cache savings: cache-hit events carry no app (the
	// pool is shared), so the modeled avoided fetch time lands on the
	// totals table only.
	if tmpBytes > 0 {
		totals.SavedUS.add(tmpCacheSavedIdx, bytesToUS(tmpBytes))
	}
	return rep
}

// row returns the table for key in a group of tables (per tenant,
// workload or backend), adding it on first sight.
func row(group map[string]*Table, key string) *Table {
	t := group[key]
	if t == nil {
		t = &Table{}
		group[key] = t
	}
	return t
}

func nameOr(name, fallback string) string {
	if name != "" {
		return name
	}
	if fallback != "" {
		return fallback
	}
	return "app"
}

// bytesToUS converts bytes into modeled microseconds at the nominal
// shuffle bandwidth, in integer arithmetic for byte stability.
func bytesToUS(b int64) int64 {
	if b <= 0 {
		return 0
	}
	return b * 1_000_000 / NominalShuffleBytesPerSec
}

func round6(v float64) float64 {
	const scale = 1e6
	if v >= 0 {
		return float64(int64(v*scale+0.5)) / scale
	}
	return -float64(int64(-v*scale+0.5)) / scale
}

// lambdaUSDPerSecond is the nominal per-second price of one Lambda
// executor at NominalLambdaMemoryGB.
func lambdaUSDPerSecond() float64 {
	return NominalLambdaMemoryGB * billing.LambdaGBSecondUSD
}

func vmUSDPerCoreSecond() float64 {
	return NominalVMUSDPerCoreHour / 3600
}

// String renders the report's totals as an aligned text table, one row
// per cause, with savings separated below the makespan sum.
func (r *Report) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "== attribution totals (%d jobs, %s makespan) ==\n",
		r.Totals.Jobs, usLabel(r.Totals.MakespanUS))
	fmt.Fprintf(&b, "%-18s %12s %8s %12s\n", "cause", "blame", "share", "cost")
	var sum int64
	for _, c := range Causes {
		if c.Savings() {
			continue
		}
		v := r.Totals.BlameUS.Get(c)
		sum += v
		share := 0.0
		if r.Totals.MakespanUS > 0 {
			share = 100 * float64(v) / float64(r.Totals.MakespanUS)
		}
		fmt.Fprintf(&b, "%-18s %12s %7.1f%% %11.6f$\n",
			string(c), usLabel(v), share, r.Totals.CostUSD.Get(c))
	}
	fmt.Fprintf(&b, "%-18s %12s\n", "sum", usLabel(sum))
	for _, c := range Causes {
		if !c.Savings() {
			continue
		}
		if v := r.Totals.SavedUS.Get(c); v != 0 {
			fmt.Fprintf(&b, "%-18s %12s  (counterfactual, outside the sum)\n",
				string(c), usLabel(v))
		}
	}

	if len(r.ByWorkload) > 0 {
		fmt.Fprintf(&b, "\n== by workload ==\n")
		names := sortedKeys(r.ByWorkload)
		fmt.Fprintf(&b, "%-18s %5s %12s %14s\n", "workload", "jobs", "makespan", "top cause")
		for _, n := range names {
			t := r.ByWorkload[n]
			fmt.Fprintf(&b, "%-18s %5d %12s %14s\n",
				n, t.Jobs, usLabel(t.MakespanUS), topCause(&t.BlameUS))
		}
	}
	return b.String()
}

func sortedKeys(m map[string]*Table) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// topCause returns the cause carrying the most time in a blame column,
// ties broken by name, or "-" for an empty column.
func topCause(blame *CauseUS) string {
	best, bestV := "-", int64(-1)
	for _, i := range byName {
		if blame.set&(1<<i) != 0 && blame.v[i] > bestV {
			best, bestV = string(causeOrder[i]), blame.v[i]
		}
	}
	return best
}

func usLabel(us int64) string {
	neg := ""
	if us < 0 {
		neg, us = "-", -us
	}
	switch {
	case us >= 60_000_000:
		return fmt.Sprintf("%s%.2fm", neg, float64(us)/60e6)
	case us >= 1_000_000:
		return fmt.Sprintf("%s%.2fs", neg, float64(us)/1e6)
	case us >= 1_000:
		return fmt.Sprintf("%s%dms", neg, us/1_000)
	default:
		return fmt.Sprintf("%s%dµs", neg, us)
	}
}
