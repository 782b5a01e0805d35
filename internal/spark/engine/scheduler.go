package engine

import (
	"slices"
	"time"

	"splitserve/internal/eventlog"
)

// scheduler is the combined DAG + task scheduler: it submits stages whose
// parents are complete, keeps a pending task list, assigns tasks to free
// executors with cache locality, and handles task failure, fetch failure
// (parent-stage resubmission — Spark's lineage rollback), and executor
// loss.
type scheduler struct {
	c       *Cluster
	pending []*Task
	seq     int64
	// pendingAt records when each task became pending (locality wait).
	pendingTimes map[*Task]time.Time
	// driverFree serialises task dispatch through the driver.
	driverFree time.Time
	// stageStats and taskStarts feed speculative execution.
	stageStats map[*Stage]*stageStats
	taskStarts map[*Task]time.Time
}

func newScheduler(c *Cluster) *scheduler {
	return &scheduler{
		c:            c,
		pendingTimes: make(map[*Task]time.Time),
		stageStats:   make(map[*Stage]*stageStats),
		taskStarts:   make(map[*Task]time.Time),
	}
}

// dispatchDelay reserves the driver for one task launch and returns how
// long the dispatch waits behind earlier launches.
func (s *scheduler) dispatchDelay() time.Duration {
	cost := s.c.cfg.TaskDispatchCost
	if cost <= 0 {
		return 0
	}
	now := s.c.cfg.Clock.Now()
	if s.driverFree.Before(now) {
		s.driverFree = now
	}
	s.driverFree = s.driverFree.Add(cost)
	return s.driverFree.Sub(now)
}

// pendingCount returns the number of queued tasks.
func (s *scheduler) pendingCount() int { return len(s.pending) }

// runningCount returns the number of in-flight tasks.
func (s *scheduler) runningCount() int {
	n := 0
	for _, id := range s.c.order {
		if e := s.c.execs[id]; e.State == ExecBusy || (e.State == ExecDraining && e.current != nil) {
			n++
		}
	}
	return n
}

// backlog reports whether work is waiting for executors.
func (s *scheduler) backlog() bool { return len(s.pending) > 0 }

// submitJob seeds the stage graph and starts scheduling.
func (s *scheduler) submitJob(job *Job) {
	s.maybeSubmitStages(job)
	s.trySchedule()
}

// maybeSubmitStages submits every stage whose parents are complete. Map
// stages whose shuffle output is already registered (from an earlier job,
// or a surviving resubmission) are skipped, as Spark skips stages whose
// outputs are available.
func (s *scheduler) maybeSubmitStages(job *Job) {
	for _, st := range job.Stages {
		if st.submitted || st.done {
			continue
		}
		if st.Kind == StageShuffleMap && s.c.tracker.Complete(st.ShuffleID) {
			st.done = true
			continue
		}
		ready := true
		for _, p := range st.Parents {
			if !p.done {
				ready = false
				break
			}
		}
		if ready {
			s.submitStage(job, st)
		}
	}
}

// submitStage creates pending tasks for the stage's missing partitions.
// Tasks become runnable after the configured stage-launch overhead.
func (s *scheduler) submitStage(job *Job, st *Stage) {
	st.submitted = true
	var parts []int
	if st.Kind == StageShuffleMap {
		parts = s.c.tracker.MissingMaps(st.ShuffleID)
	} else {
		for p := 0; p < st.NumTasks(); p++ {
			if job.results[p] == nil {
				parts = append(parts, p)
			}
		}
	}
	st.pendingParts = len(parts)
	s.stageStats[st] = &stageStats{total: len(parts)}
	s.c.Emit(eventlog.Event{Type: eventlog.StageStart, Stage: st.ID, Task: -1, Note: st.Target.Name})
	enqueue := func() {
		for _, p := range parts {
			s.enqueue(&Task{Job: job, Stage: st, Part: p, State: TaskPending})
		}
		s.trySchedule()
	}
	if d := s.c.cfg.StageLaunchOverhead; d > 0 {
		s.c.cfg.Clock.After(d, enqueue)
	} else {
		enqueue()
	}
}

// enqueue adds a task to the pending list, computing its cache preference.
func (s *scheduler) enqueue(t *Task) {
	s.seq++
	t.PendingSince = s.seq
	t.State = TaskPending
	t.Preferred = s.preferredExecutor(t)
	s.pending = append(s.pending, t)
	s.pendingTimes[t] = s.c.cfg.Clock.Now()
	s.c.insts.pendingTasks.Set(float64(len(s.pending)))
}

// preferredExecutor returns the live executor caching a partition on this
// task's chain, preferring nodes closest to the stage target. It consults
// the cluster's cache locator, so it is cheap enough to re-evaluate at
// every scheduling decision (caches fill and evict while tasks queue).
func (s *scheduler) preferredExecutor(t *Task) string {
	chain := stageChain(t.Stage.Target)
	for i := len(chain) - 1; i >= 0; i-- {
		if !chain[i].Cached {
			continue
		}
		key := cachedPart{rddID: chain[i].ID, part: t.Part}
		if id := s.c.cacheOwner(key); id != "" {
			if e := s.c.execs[id]; e != nil && e.State != ExecDead {
				return id
			}
		}
	}
	return ""
}

// runnable reports whether a task's parent stages are complete.
func (s *scheduler) runnable(t *Task) bool {
	for _, p := range t.Stage.Parents {
		if !p.done {
			return false
		}
	}
	return true
}

// trySchedule assigns pending tasks to free executors until no assignment
// is possible. Placement honours, in order: backend veto (the segue hook),
// cache locality, then FIFO.
func (s *scheduler) trySchedule() {
	for {
		assigned := false
		for _, id := range s.c.order {
			e := s.c.execs[id]
			if e.State != ExecFree {
				continue
			}
			if !s.c.cfg.Backend.AllowAssign(e) {
				continue
			}
			if t := s.pickTask(e); t != nil {
				if queuedAt, ok := s.pendingTimes[t]; ok {
					wait := s.c.cfg.Clock.Now().Sub(queuedAt)
					s.c.insts.queueWait.ObserveDuration(wait)
					s.c.insts.stageLatency(t.Stage.ID).ObserveDuration(wait)
				}
				s.dequeue(t)
				assigned = true
				s.runTask(t, e)
			}
		}
		if !assigned {
			return
		}
	}
}

// pickTask selects the best pending task for executor e.
func (s *scheduler) pickTask(e *Executor) *Task {
	now := s.c.cfg.Clock.Now()
	var fallback *Task
	var needWake *Task
	for _, t := range s.pending {
		if !s.runnable(t) {
			continue
		}
		t.Preferred = s.preferredExecutor(t) // caches move while tasks queue
		if t.Preferred == e.ID {
			return t // locality match
		}
		if fallback != nil {
			continue
		}
		if t.Preferred == "" {
			fallback = t
			continue
		}
		pref := s.c.execs[t.Preferred]
		if pref == nil || pref.State == ExecDead || pref.State == ExecDraining {
			fallback = t
			continue
		}
		// The preferred executor is alive but occupied: wait up to
		// LocalityWait before running the task elsewhere.
		if now.Sub(s.pendingTimes[t]) >= s.c.cfg.LocalityWait {
			fallback = t
		} else if needWake == nil {
			needWake = t
		}
	}
	if fallback == nil && needWake != nil {
		// Re-poke the scheduler when the locality wait expires so the task
		// does not stall if no further events arrive.
		deadline := s.pendingTimes[needWake].Add(s.c.cfg.LocalityWait)
		s.c.cfg.Clock.At(deadline, func() { s.trySchedule() })
	}
	return fallback
}

func (s *scheduler) dequeue(t *Task) {
	for i, x := range s.pending {
		if x == t {
			s.pending = slices.Delete(s.pending, i, i+1)
			break
		}
	}
	delete(s.pendingTimes, t)
	s.c.insts.pendingTasks.Set(float64(len(s.pending)))
}

// onExecutorUp reacts to a new executor.
func (s *scheduler) onExecutorUp(*Executor) { s.trySchedule() }

// onExecutorDown fails the executor's running task and requeues it.
func (s *scheduler) onExecutorDown(e *Executor) {
	if t := e.current; t != nil {
		e.current = nil
		t.cancelled = true
		t.State = TaskFailedState
		s.c.Emit(eventlog.Event{
			Type: eventlog.TaskFailed, Exec: e.ID, Kind: e.Kind.String(), Stage: t.Stage.ID, Task: t.Part,
			Note: "executor lost",
		})
		s.c.insts.tasksFailed[kindIdx(e.Kind)].Inc()
		s.retry(t)
	}
	s.trySchedule()
}

// retry requeues a failed task attempt or aborts the job.
func (s *scheduler) retry(t *Task) {
	if t.Attempt+1 >= s.c.cfg.MaxTaskAttempts {
		t.Job.complete(&TaskError{Task: t})
		return
	}
	s.c.insts.taskRetries.Inc()
	s.enqueue(&Task{
		Job: t.Job, Stage: t.Stage, Part: t.Part, Attempt: t.Attempt + 1,
	})
	s.trySchedule()
}

// TaskError wraps a task abort.
type TaskError struct{ Task *Task }

func (e *TaskError) Error() string {
	return "engine: " + e.Task.String() + " exceeded retry limit"
}

// Unwrap lets errors.Is match ErrTaskRetriesExhausted.
func (e *TaskError) Unwrap() error { return ErrTaskRetriesExhausted }

// onTaskFinished handles successful completion of either task kind.
func (s *scheduler) onTaskFinished(t *Task, e *Executor) {
	winner := s.settleTwin(t)
	t.State = TaskFinished
	e.TasksRun++
	e.current = nil
	s.c.insts.tasksFinished[kindIdx(e.Kind)].Inc()
	if started, ok := s.taskStarts[t]; ok {
		elapsed := s.c.cfg.Clock.Now().Sub(started)
		e.BusyTime += elapsed
		if st := s.stageStats[t.Stage]; st != nil && winner {
			st.durations = append(st.durations, elapsed)
		}
		delete(s.taskStarts, t)
	}
	if !winner {
		// The twin already completed this partition; just free the executor.
		s.c.Emit(eventlog.Event{
			Type: eventlog.TaskEnd, Exec: e.ID, Kind: e.Kind.String(), Stage: t.Stage.ID, Task: t.Part,
			Note: "lost speculation race",
		})
		switch e.State {
		case ExecBusy:
			e.State = ExecFree
			e.IdleSince = s.c.cfg.Clock.Now()
		case ExecDraining:
			s.c.cfg.Backend.ExecutorDrained(e)
		}
		s.trySchedule()
		return
	}
	s.c.Emit(eventlog.Event{
		Type: eventlog.TaskEnd, Exec: e.ID, Kind: e.Kind.String(), Stage: t.Stage.ID, Task: t.Part,
	})
	switch e.State {
	case ExecBusy:
		e.State = ExecFree
		e.IdleSince = s.c.cfg.Clock.Now()
	case ExecDraining:
		s.c.cfg.Backend.ExecutorDrained(e)
	}

	st := t.Stage
	st.pendingParts--
	s.maybeSpeculate(st, t.Job)
	if st.Kind == StageShuffleMap {
		if s.c.tracker.Complete(st.ShuffleID) {
			st.done = true
			s.c.Emit(eventlog.Event{Type: eventlog.StageEnd, Stage: st.ID, Task: -1, Note: st.Target.Name})
			s.maybeSubmitStages(t.Job)
		}
	} else {
		job := t.Job
		allDone := true
		for _, r := range job.results {
			if r == nil {
				allDone = false
				break
			}
		}
		if allDone {
			st.done = true
			s.c.Emit(eventlog.Event{Type: eventlog.StageEnd, Stage: st.ID, Task: -1, Note: st.Target.Name})
			job.complete(nil)
		}
	}
	s.alloc().onBacklogChange()
	s.trySchedule()
}

func (s *scheduler) alloc() *allocManager { return s.c.alloc }

// onFetchFailed reacts to missing shuffle inputs: the producing map stage
// is resubmitted for its missing partitions and the reduce task is
// requeued, blocked until the parent completes again — the "execution
// roll-back" path the paper's segueing facility exists to avoid.
func (s *scheduler) onFetchFailed(t *Task, e *Executor, shuffleID int) {
	s.c.Emit(eventlog.Event{
		Type: eventlog.TaskFailed, Exec: e.ID, Kind: e.Kind.String(), Stage: t.Stage.ID, Task: t.Part,
		Note: "fetch failed",
	})
	s.c.insts.tasksFailed[kindIdx(e.Kind)].Inc()
	s.c.insts.fetchFailures.Inc()
	if e.State == ExecBusy {
		e.State = ExecFree
		e.IdleSince = s.c.cfg.Clock.Now()
	} else if e.State == ExecDraining {
		s.c.cfg.Backend.ExecutorDrained(e)
	}
	e.current = nil

	parent := t.Job.mapStageByShuffle[shuffleID]
	if parent != nil && parent.done {
		parent.done = false
		parent.submitted = false
		s.c.Emit(eventlog.Event{Type: eventlog.StageResubmitted, Stage: parent.ID, Task: -1, Note: parent.Target.Name})
	}
	// Requeue without charging an attempt: fetch failures are the
	// producer's fault, as in Spark.
	s.enqueue(&Task{Job: t.Job, Stage: t.Stage, Part: t.Part, Attempt: t.Attempt})
	s.maybeSubmitStages(t.Job)
	s.trySchedule()
}
