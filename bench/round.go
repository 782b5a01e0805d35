package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"time"

	"splitserve/internal/attrib"
	"splitserve/internal/cluster"
	"splitserve/internal/eventlog"
	"splitserve/internal/perfstat"
	"splitserve/internal/shard"
)

// outcome is a finished simulation's report: one scheduler's, or the
// sharded manager's merged one.
type outcome struct {
	cluster *cluster.Report
	shard   *shard.Report
}

func (o outcome) json() ([]byte, error) {
	if o.shard != nil {
		return o.shard.JSON()
	}
	return o.cluster.JSON()
}

// run plays s to completion with tracing off, the way a user runs it, and
// returns the wall time of Scheduler.Run or Manager.Run.
func (s *sim) run() (outcome, time.Duration, error) {
	t0 := time.Now()
	if s.mgr != nil {
		rep, err := s.mgr.Run()
		return outcome{shard: rep}, time.Since(t0), err
	}
	rep, err := s.sched.Run()
	return outcome{cluster: rep}, time.Since(t0), err
}

// exported is what producing the user-facing outputs yielded, with each
// call into the program timed from outside it.
type exported struct {
	digest     string
	events     []eventlog.Event
	jsonlBytes int64
	attrib     *attrib.Report

	reportJSON, merge, jsonl, analyze call
}

func (e *exported) total() time.Duration {
	return e.reportJSON.dur + e.merge.dur + e.jsonl.dur + e.analyze.dur
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// export produces the outputs a user asks for after a run: the report
// JSON, the event log as JSONL (written to a hashing writer rather than a
// file), and the causal attribution. For the sharded manager the merged
// event stream is built first. The digest covers report JSON then JSONL.
func (s *sim) export(o outcome) (*exported, error) {
	ex := &exported{}
	h := sha256.New()

	t0 := time.Now()
	js, err := o.json()
	ex.reportJSON = timeCall(t0)
	if err != nil {
		return nil, fmt.Errorf("report JSON: %w", err)
	}
	h.Write(js)

	t0 = time.Now()
	if s.mgr != nil {
		ex.events = s.mgr.Events()
	} else {
		ex.events = s.sched.Events().Events()
	}
	ex.merge = timeCall(t0)

	t0 = time.Now()
	cw := &countingWriter{w: h}
	err = eventlog.WriteJSONL(cw, ex.events)
	ex.jsonl = timeCall(t0)
	if err != nil {
		return nil, fmt.Errorf("event log JSONL: %w", err)
	}
	ex.jsonlBytes = cw.n
	ex.digest = hex.EncodeToString(h.Sum(nil))

	t0 = time.Now()
	ex.attrib = attrib.Analyze(ex.events)
	ex.analyze = timeCall(t0)
	return ex, nil
}

// tally counts a run's jobs by how they ended. failed counts failed, shed
// and stalled jobs; a job fails when its workload rejects its own output.
func (o outcome) tally() (jobs, completed, failed int) {
	if o.shard != nil {
		r := o.shard
		return r.Jobs, r.Completed, r.Failed + r.Shed
	}
	r := o.cluster
	return r.Jobs, r.Completed, r.Failed + r.Shed
}

// verify checks the invariants every run must keep: every submitted job
// is accounted for, blame sums to makespan for every job, and a sharded
// run's per-tenant and per-shard tables sum to its global totals.
func verify(want int, o outcome, ex *exported) error {
	jobs, completed, failed := o.tally()
	if jobs != want || completed+failed != jobs {
		return fmt.Errorf("report accounts for %d jobs (%d completed, %d failed), want %d submitted", jobs, completed, failed, want)
	}
	if len(ex.attrib.Jobs) != jobs {
		return fmt.Errorf("attribution covers %d jobs, want %d", len(ex.attrib.Jobs), jobs)
	}
	for i := range ex.attrib.Jobs {
		j := &ex.attrib.Jobs[i]
		if sum := j.BlameSumUS(); sum != j.MakespanUS {
			return fmt.Errorf("attribution of %s: blame sums to %dus, makespan is %dus", j.App, sum, j.MakespanUS)
		}
	}
	if r := o.shard; r != nil {
		var tj, tc, tf, ts, tv, sj, out, in int
		for _, t := range r.PerTenant {
			tj += t.Jobs
			tc += t.Completed
			tf += t.Failed
			ts += t.Shed
			tv += t.SLOViolations
		}
		for _, l := range r.PerShard {
			sj += l.Jobs
			out += l.StolenAway
			in += l.StolenIn
		}
		if tj != r.Jobs || tc != r.Completed || tf != r.Failed || ts != r.Shed || tv != r.SLOViolations {
			return fmt.Errorf("per-tenant tables (jobs %d, completed %d, failed %d, shed %d, violations %d) do not sum to the global %d/%d/%d/%d/%d",
				tj, tc, tf, ts, tv, r.Jobs, r.Completed, r.Failed, r.Shed, r.SLOViolations)
		}
		if sj != r.Jobs || out != r.Steals || in != r.Steals {
			return fmt.Errorf("per-shard tables (jobs %d, stolen away %d, in %d) do not match the global %d jobs, %d steals",
				sj, out, in, r.Jobs, r.Steals)
		}
	}
	return nil
}

// liveHeapMiB collects garbage and returns the live heap in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// roundResult is one round: a fresh simulation set up, run, exported and
// checked.
type roundResult struct {
	setup, run, export time.Duration
	heapRetainedMiB    float64
	jobs, failed       int
	digest             string
	// problem is the invariant the round broke, if any.
	problem error
	// layers holds the per-layer metrics of a traced round.
	layers map[string]float64
}

// minPhaseSpan is how long an untraced round repeats its short phases,
// set-up and export, before taking the median of their times: a phase of
// a few milliseconds is otherwise at the mercy of one scheduling hiccup or
// GC cycle.
const minPhaseSpan = 200 * time.Millisecond

// timeMedian calls f once, or with a positive span until span has passed,
// and returns f's last result with the median duration of the calls.
func timeMedian[T any](span time.Duration, f func() (T, error)) (T, time.Duration, error) {
	var durs []float64
	var total time.Duration
	for {
		t0 := time.Now()
		v, err := f()
		d := time.Since(t0)
		if err != nil {
			return v, 0, err
		}
		durs = append(durs, d.Seconds())
		if total += d; total >= span {
			return v, time.Duration(median(durs) * float64(time.Second)), nil
		}
	}
}

// runRound runs one round of w at the given size. A traced round drives
// the simulation by hand and records per-layer metrics and spans into tr;
// an untraced round (tr == nil) runs it the way users do. Each phase
// starts from a collected heap, so garbage from the one before does not
// decide when the next one pays for a GC cycle.
func runRound(w workload, seed uint64, jobs int, tr *tracer) (*roundResult, error) {
	span := minPhaseSpan
	var prof *perfstat.Collector
	if tr != nil {
		span = 0
		prof = perfstat.New()
	}
	heap0 := liveHeapMiB()

	setupStart := time.Now()
	s, setup, err := timeMedian(span, func() (*sim, error) { return w.setup(seed, jobs, prof) })
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	res := &roundResult{setup: setup, jobs: jobs}
	runtime.GC()

	var o outcome
	var lay *layerRecorder
	if tr != nil {
		tr.span("setup", "", setupStart, res.setup)
		s.traceSetup(tr)
		lay = newLayerRecorder(prof)
		o, res.run, err = s.runTraced(tr, lay)
	} else {
		o, res.run, err = s.run()
	}
	if err != nil {
		return nil, fmt.Errorf("%s run: %w", w.name, err)
	}

	runtime.GC()
	ex, export, err := timeMedian(span, func() (*exported, error) { return s.export(o) })
	if err != nil {
		return nil, fmt.Errorf("%s export: %w", w.name, err)
	}
	res.export = export
	res.digest = ex.digest
	if err := verify(jobs, o, ex); err != nil {
		res.problem = fmt.Errorf("%s seed %d: %w", w.name, seed, err)
	}
	_, _, res.failed = o.tally()

	if tr != nil {
		ex.trace(tr)
		if res.layers, err = lay.finish(s, o, ex, res.run); err != nil {
			return nil, err
		}
	}

	// Retained heap: what the finished simulation and its report keep
	// alive, the event log included. The export's temporary outputs (the
	// copied event stream, the attribution) are no longer referenced here.
	res.heapRetainedMiB = liveHeapMiB() - heap0
	runtime.KeepAlive(s)
	runtime.KeepAlive(o)
	return res, nil
}
