package engine

import (
	"fmt"
	"time"

	"splitserve/internal/spark/rdd"
)

// StageKind discriminates shuffle-map stages from result stages.
type StageKind int

// Stage kinds.
const (
	StageShuffleMap StageKind = iota + 1
	StageResult
)

func (k StageKind) String() string {
	switch k {
	case StageShuffleMap:
		return "shuffle-map"
	case StageResult:
		return "result"
	default:
		return fmt.Sprintf("StageKind(%d)", int(k))
	}
}

// Stage is a set of pipelined tasks between shuffle boundaries, exactly as
// Spark builds them from the lineage DAG.
type Stage struct {
	ID   int
	Kind StageKind
	// Target is the dataset whose partitions the stage's tasks compute.
	Target *rdd.RDD
	// Wide is the shuffle consumer this stage feeds (shuffle-map stages
	// only), and Side which of its parents this stage computes.
	Wide *rdd.RDD
	Side int
	// ShuffleID identifies the shuffle this stage writes (map stages).
	ShuffleID int
	// Parents are the stages producing the shuffles this stage reads.
	Parents []*Stage
	// chain is stageChain(Target), built with the stage: the scheduler
	// walks it at every placement decision and task start.
	chain []*rdd.RDD

	// Scheduling state.
	submitted bool
	done      bool
	// pendingParts counts partitions not yet completed in this submission.
	pendingParts int
}

// NumTasks is the stage's task count (one per target partition).
func (s *Stage) NumTasks() int { return s.Target.Parts }

// Done reports stage completion.
func (s *Stage) Done() bool { return s.done }

// chainLeaf walks narrow dependencies from r down to the stage's leaf: a
// source, shuffled or co-grouped dataset.
func chainLeaf(r *rdd.RDD) *rdd.RDD {
	for r.Kind == rdd.KindNarrow {
		r = r.Parents[0]
	}
	return r
}

// stageChain returns the stage's datasets leaf-first, ending at target.
func stageChain(target *rdd.RDD) []*rdd.RDD {
	var rev []*rdd.RDD
	r := target
	for {
		rev = append(rev, r)
		if r.Kind != rdd.KindNarrow {
			break
		}
		r = r.Parents[0]
	}
	out := make([]*rdd.RDD, len(rev))
	for i, n := range rev {
		out[len(rev)-1-i] = n
	}
	return out
}

// stageBuilder constructs the stage graph for one job, memoising map
// stages by shuffle ID so shared lineage is built once. Shuffle IDs are
// assigned by the cluster per wide-dataset identity, so jobs sharing a
// lineage graph reuse completed shuffles (Spark skips stages whose outputs
// are already available) while unrelated plans never collide.
type stageBuilder struct {
	nextID    func() int
	sidFor    func(wide *rdd.RDD, side int) int
	byShuffle map[int]*Stage
	all       []*Stage
}

func newStageBuilder(nextID func() int, sidFor func(*rdd.RDD, int) int) *stageBuilder {
	return &stageBuilder{nextID: nextID, sidFor: sidFor, byShuffle: make(map[int]*Stage)}
}

// build creates the result stage for target and every stage feeding it,
// collecting them in b.all.
func (b *stageBuilder) build(target *rdd.RDD) {
	result := &Stage{
		ID:     b.nextID(),
		Kind:   StageResult,
		Target: target,
		chain:  stageChain(target),
	}
	result.Parents = b.parentStages(target)
	b.all = append(b.all, result)
}

// parentStages creates (or reuses) the map stages feeding the stage whose
// target is r.
func (b *stageBuilder) parentStages(target *rdd.RDD) []*Stage {
	leaf := chainLeaf(target)
	switch leaf.Kind {
	case rdd.KindSource:
		return nil
	case rdd.KindShuffled:
		return []*Stage{b.mapStage(leaf, 0)}
	case rdd.KindCoGrouped:
		return []*Stage{b.mapStage(leaf, 0), b.mapStage(leaf, 1)}
	default:
		panic("engine: impossible leaf kind " + leaf.Kind.String())
	}
}

// mapStage returns the shuffle-map stage producing side `side` of wide.
func (b *stageBuilder) mapStage(wide *rdd.RDD, side int) *Stage {
	sid := b.sidFor(wide, side)
	if st, ok := b.byShuffle[sid]; ok {
		return st
	}
	st := &Stage{
		ID:        b.nextID(),
		Kind:      StageShuffleMap,
		Target:    wide.Parents[side],
		Wide:      wide,
		Side:      side,
		ShuffleID: sid,
	}
	st.chain = stageChain(st.Target)
	b.byShuffle[sid] = st
	st.Parents = b.parentStages(st.Target)
	b.all = append(b.all, st)
	return st
}

// keyFnFor returns the key function the map side of a stage's shuffle uses.
func keyFnFor(wide *rdd.RDD, side int) func(rdd.Row) rdd.Key {
	switch wide.Kind {
	case rdd.KindShuffled:
		return wide.KeyFn
	case rdd.KindCoGrouped:
		if side == 0 {
			return wide.LeftKeyFn
		}
		return wide.RightKeyFn
	default:
		panic("engine: keyFnFor on non-wide dataset")
	}
}

// mergeFnFor returns the map-side combiner, if any.
func mergeFnFor(wide *rdd.RDD) func(a, b rdd.Row) rdd.Row {
	if wide.Kind == rdd.KindShuffled {
		return wide.MergeFn
	}
	return nil
}

// TaskState tracks a task attempt lifecycle.
type TaskState int

// Task states.
const (
	TaskPending TaskState = iota + 1
	TaskRunning
	TaskFinished
	TaskFailedState
)

// Task is one partition computation of one stage.
type Task struct {
	Job     *Job
	Stage   *Stage
	Part    int
	Attempt int
	State   TaskState
	// Preferred is the executor holding a cached partition this task
	// wants (empty = no preference).
	Preferred    string
	PendingSince int64 // sequence for FIFO ordering
	Exec         *Executor
	cancelled    bool
	// queuedAt is when the task last became pending (queue wait, locality
	// wait); startedAt is when its body started (executor busy time).
	queuedAt  time.Time
	startedAt time.Time
}

func (t *Task) String() string {
	return fmt.Sprintf("task(stage=%d part=%d attempt=%d)", t.Stage.ID, t.Part, t.Attempt)
}

// Job is one action execution: a result stage plus its ancestry.
type Job struct {
	ID     int
	Name   string
	Stages []*Stage
	// mapStageByShuffle lets fetch-failures find the producer to resubmit.
	mapStageByShuffle map[int]*Stage

	results [][]rdd.Row
	done    bool
	err     error
	// wake is the parked caller's resume hook (see Config.Yield).
	wake func()
}

// complete marks the job done with err and fires the registered wake.
// Only the first completion counts: a job aborted earlier keeps its error
// and wakes nobody twice.
func (j *Job) complete(err error) {
	if j.done {
		return
	}
	j.done = true
	j.err = err
	if wake := j.wake; wake != nil {
		j.wake = nil
		wake()
	}
}

// onDone registers wake to run once, when the job completes — at once if
// it already has.
func (j *Job) onDone(wake func()) {
	if j.done {
		wake()
		return
	}
	j.wake = wake
}

// Done reports job completion.
func (j *Job) Done() bool { return j.done }

// Err returns the job error, if any.
func (j *Job) Err() error { return j.err }

// Rows flattens the per-partition results in partition order.
func (j *Job) Rows() []rdd.Row {
	var out []rdd.Row
	for _, part := range j.results {
		out = append(out, part...)
	}
	return out
}
