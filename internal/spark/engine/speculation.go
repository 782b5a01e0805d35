package engine

import (
	"time"

	"splitserve/internal/eventlog"
)

// Speculative execution (spark.speculation): once a configurable fraction
// of a stage's tasks has finished, any still-running task that has taken
// longer than SpeculationMultiplier times the stage's median task duration
// gets a duplicate attempt on another executor; whichever attempt finishes
// first wins and the loser is cancelled. This is Spark's defence against
// the stragglers the paper repeatedly calls out ("the straggler problems
// common to BSP workloads remain"), and in this reproduction it rescues
// tasks stuck behind slow Lambda egress links.

// SpeculationConfig parameterises speculative execution.
type SpeculationConfig struct {
	Enabled bool
	// Quantile of stage tasks that must have finished before speculation
	// is considered (Spark default 0.75).
	Quantile float64
	// Multiplier over the median finished-task duration beyond which a
	// running task is deemed a straggler (Spark default 1.5).
	Multiplier float64
}

// DefaultSpeculationConfig mirrors Spark's defaults (disabled, as in
// Spark; scenarios opt in).
func DefaultSpeculationConfig() SpeculationConfig {
	return SpeculationConfig{Quantile: 0.75, Multiplier: 1.5}
}

// stageStats tracks per-stage task durations for speculation decisions.
type stageStats struct {
	durations []time.Duration // finished-task durations, unsorted
	total     int
}

// median returns the median finished duration (0 if none).
func (s *stageStats) median() time.Duration {
	if len(s.durations) == 0 {
		return 0
	}
	// Insertion into a sorted copy would be O(n log n) per call; stage
	// sizes are small (hundreds), so copy+select is fine.
	cp := append([]time.Duration(nil), s.durations...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

// maybeSpeculate inspects a stage after a task completion and enqueues
// duplicate attempts for stragglers.
func (s *scheduler) maybeSpeculate(st *Stage, job *Job) {
	cfg := s.c.cfg.Speculation
	if !cfg.Enabled {
		return
	}
	stats := s.stageStats[st]
	if stats == nil || stats.total == 0 {
		return
	}
	if float64(len(stats.durations)) < cfg.Quantile*float64(stats.total) {
		return
	}
	threshold := time.Duration(float64(stats.median()) * cfg.Multiplier)
	if threshold <= 0 {
		return
	}
	now := s.c.cfg.Clock.Now()
	for _, id := range s.c.order {
		e := s.c.execs[id]
		t := e.current
		if t == nil || t.Stage != st || t.speculative || t.twin != nil {
			continue
		}
		if started, ok := s.taskStarts[t]; ok && now.Sub(started) > threshold {
			copyTask := &Task{
				Job: job, Stage: st, Part: t.Part, Attempt: t.Attempt,
				speculative: true, twin: t,
			}
			t.twin = copyTask
			s.c.Emit(eventlog.Event{
				Type: eventlog.TaskSpeculated, Exec: e.ID, Kind: e.Kind.String(), Stage: st.ID, Task: t.Part,
			})
			s.c.insts.tasksSpeculated.Inc()
			s.enqueue(copyTask)
		}
	}
}

// settleTwin is called when one attempt of a speculated pair finishes: the
// other attempt is cancelled and its executor freed. It reports whether
// the finishing attempt is the winner (false = the partition was already
// completed by its twin; drop this result).
func (s *scheduler) settleTwin(t *Task) bool {
	twin := t.twin
	if twin == nil {
		return true
	}
	t.twin = nil
	twin.twin = nil
	if twin.State == TaskFinished {
		return false // the twin already won
	}
	twin.cancelled = true
	twin.State = TaskFailedState
	s.dequeue(twin) // harmless if it never left the queue
	if e := twin.Exec; e != nil && e.current == twin {
		e.current = nil
		if e.State == ExecBusy {
			e.State = ExecFree
			e.IdleSince = s.c.cfg.Clock.Now()
		} else if e.State == ExecDraining {
			s.c.cfg.Backend.ExecutorDrained(e)
		}
	}
	return true
}
