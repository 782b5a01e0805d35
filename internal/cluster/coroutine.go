//go:build go1.23

// The module's go directive stays at 1.22 so the benchmark module, which
// builds this package from its own go.mod, needs no update; iter.Pull is
// go1.23 API, and this build constraint raises the language version of
// this one file to go1.23.

package cluster

import (
	"iter"
	"time"
)

// coroutine is one job's workload, run as an iter.Pull coroutine. Only the
// driver (Run's loop, or the sharded control plane's) resumes workloads,
// one at a time and always to their next park or return, so the workloads
// of all jobs execute in a deterministic order on one logical thread. A
// parked workload joins the run-queue when its engine job completes: the
// engine calls the wake it registered through engine.Config.Yield.
type coroutine struct {
	// next resumes the workload until it parks or returns; stop resumes it
	// with yield returning false, which aborts it as stalled, and returns
	// once the workload has returned.
	next func() (struct{}, bool)
	stop func()
	// yield parks the running workload, handing control back to whoever
	// resumed it.
	yield func(struct{}) bool
	// parkSeq numbers the workload's current park (0 while it runs), so
	// Finalize can abort still-parked workloads in park order.
	parkSeq uint64
}

// runJob builds the job's coroutine, runs the workload to its first park
// (or to its end), then drains the run-queue of any workloads it woke on
// the way. From here on the workload only executes between resumes, so its
// real completion instants are observed at the event that caused them
// rather than at call-stack unwind.
func (s *Scheduler) runJob(j *job) {
	co := j.co
	co.next, co.stop = iter.Pull(func(yield func(struct{}) bool) {
		co.yield = yield
		rep, err := j.spec.Workload.Run(j.cluster)
		j.backend.shutdown()
		s.finish(j, rep, err)
	})
	s.resume(co, false)
	s.Pump()
}

// resume runs co until its workload parks again or returns; abort makes
// the pending yield return false instead. The self-profiler times the
// burst as one handoff.
func (s *Scheduler) resume(co *coroutine, abort bool) {
	var start time.Time
	if s.prof != nil {
		start = time.Now()
	}
	if abort {
		co.stop()
	} else {
		co.next()
	}
	if s.prof != nil {
		s.prof.ObserveHandoff(time.Since(start))
	}
}
