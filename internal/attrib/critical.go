package attrib

import (
	"cmp"
	"slices"
	"strings"

	"splitserve/internal/eventlog"
)

// taskIval is one finished task occurrence, the unit the critical-path
// walk steps through.
type taskIval struct {
	startUS int64
	endUS   int64
	stage   int
	task    int
	exec    string
	kind    string
	// execIdx and stageIdx index the app's execs and stages.
	execIdx  int32
	stageIdx int32
}

// ioPoint is one shuffle instant (bytes at a timestamp) used to model
// I/O time inside critical tasks.
type ioPoint struct {
	tsUS  int64
	task  int
	exec  string
	bytes int64
}

// execInfo is one executor of an app. An app has a handful, so they are
// searched linearly; the app's execs list them in the order the log first
// names them: registration order in any log the engine writes.
type execInfo struct {
	id    string
	kind  string // "vm" | "lambda": the last executor_add naming one
	addUS int64  // last registration, when added
	remUS int64  // last removal, when removed
	added bool
	// removed marks an executor_remove; without one the executor lives
	// to the end of the job.
	removed bool
}

// stageInfo is one stage of an app.
type stageInfo struct {
	stage int
	// startUS is the earliest stage_start TS, when started: the moment
	// the stage's tasks became runnable (the walk's "stage ready"
	// anchor).
	startUS int64
	started bool
	// medianUS is the median task duration, the straggler baseline (same
	// rule as eventlog.Analyze); 0 for a stage without tasks.
	medianUS int64
}

// appLog is everything the walk needs about one application, extracted
// from the stream in a single pass.
type appLog struct {
	app  string
	name string
	// tenant is the submitting tenant, learned from the sharded control
	// plane's shard_assign/shard_steal events (empty on unsharded logs,
	// where the app-prefix fallback applies).
	tenant    string
	arrivalUS int64
	admitUS   int64
	endUS     int64
	delayed   bool
	failed    bool
	tasks     []taskIval
	execs     []execInfo
	stages    []stageInfo
	reads     []ioPoint // shuffle_read instants
	writes    []ioPoint // shuffle_write instants
	// looseEndUS is the latest engine-level end observed (job_end, task
	// ends) — the fallback end for logs without cluster events.
	looseEndUS int64
	// While collectApps reads the stream, the app's executors and stages
	// are in run-wide lists: lastExec and lastStage are the positions of
	// its newest (-1 before the first), nexecs and nstages its counts.
	lastExec, lastStage int32
	nexecs, nstages     int32
}

// execIndex returns the app's index of executor id and its record in the
// run-wide list execs, adding it on first sight; a is the app's index in
// the run. The search runs from the newest executor.
func (al *appLog) execIndex(execs *keyed[execInfo], a int32, id string) (int32, *execInfo) {
	x := al.nexecs
	for g := al.lastExec; g >= 0; g = execs.prev[g] {
		x--
		if execs.items[g].id == id {
			return x, &execs.items[g]
		}
	}
	g := execs.push(a, &al.lastExec, execInfo{id: id})
	al.nexecs++
	return al.nexecs - 1, &execs.items[g]
}

// stageIndex returns the app's index of stage st and its record in the
// run-wide list stages, adding it on first sight. The search runs from
// the newest stage, the one events usually name.
func (al *appLog) stageIndex(stages *keyed[stageInfo], a int32, st int) (int32, *stageInfo) {
	x := al.nstages
	for g := al.lastStage; g >= 0; g = stages.prev[g] {
		x--
		if stages.items[g].stage == st {
			return x, &stages.items[g]
		}
	}
	g := stages.push(a, &al.lastStage, stageInfo{stage: st})
	al.nstages++
	return al.nstages - 1, &stages.items[g]
}

// attributeJobs extracts per-app logs from the stream and runs the
// causal decomposition on each, in first-arrival order (ties broken by
// app name) so the report layout is deterministic. tmpBytes is the run's
// /tmp cache hit bytes.
func attributeJobs(events []eventlog.Event) (jobs []JobAttribution, tmpBytes int64) {
	apps, tmpBytes := collectApps(events)
	if len(apps) == 0 {
		return nil, tmpBytes
	}
	order := make([]*appLog, len(apps))
	for i := range apps {
		order[i] = &apps[i]
	}
	slices.SortFunc(order, func(a, b *appLog) int {
		if c := cmp.Compare(a.arrivalUS, b.arrivalUS); c != 0 {
			return c
		}
		return strings.Compare(a.app, b.app)
	})
	jobs = make([]JobAttribution, len(order))
	var scratch walkScratch
	for i, al := range order {
		scratch.attributeApp(al, &jobs[i])
	}
	return jobs, tmpBytes
}

// openTask keys a task_start awaiting its end.
type openTask struct {
	app, exec   int32
	stage, task int
}

// perApp gathers one kind of record across the run, in log order, each
// tagged with its app, until spread hands every app its own.
type perApp[T any] struct {
	items []T
	apps  []int32
}

func newPerApp[T any](n int) perApp[T] {
	return perApp[T]{items: make([]T, 0, n), apps: make([]int32, 0, n)}
}

func (p *perApp[T]) add(app int32, v T) {
	p.items = append(p.items, v)
	p.apps = append(p.apps, app)
}

// spread sorts the records by app into one array, a counting sort that
// keeps each app's records in log order, and hands each app its own as a
// capacity-limited slice, stored through slot.
func (p *perApp[T]) spread(apps []appLog, slot func(*appLog) *[]T) {
	end := make([]int, len(apps)+1)
	for _, a := range p.apps {
		end[a+1]++
	}
	for i := 1; i < len(end); i++ {
		end[i] += end[i-1]
	}
	all := make([]T, len(p.items))
	for k, a := range p.apps {
		all[end[a]] = p.items[k]
		end[a]++
	}
	// end[a] now ends app a's records; the previous app's end starts them.
	lo := 0
	for a := range apps {
		*slot(&apps[a]) = all[lo:end[a]:end[a]]
		lo = end[a]
	}
}

// keyed gathers the run's records of one kind that collectApps finds by
// key and updates while it reads the stream. Each app's records are
// chained newest-first through prev, so an app searches only its own,
// until spread hands every app its own in first-sight order.
type keyed[T any] struct {
	perApp[T]
	prev []int32
}

func newKeyed[T any](n int) keyed[T] {
	return keyed[T]{perApp: newPerApp[T](n), prev: make([]int32, 0, n)}
}

// push adds v as app a's newest record, chained after the one at *last,
// and moves *last to it. It returns v's position.
func (k *keyed[T]) push(a int32, last *int32, v T) int32 {
	g := int32(len(k.items))
	k.add(a, v)
	k.prev = append(k.prev, *last)
	*last = g
	return g
}

// collectApps partitions the stream by application. Events with no app
// (cloud control plane, warm pool) are shared context and not a job;
// of them, only the /tmp cache hits count, summed into tmpBytes.
func collectApps(events []eventlog.Event) (apps []appLog, tmpBytes int64) {
	// Count first, so the apps, their index and the run's task, shuffle,
	// executor and stage records are allocated once, at their size. Every
	// job of a cluster log arrives; an engine-only log has none and grows,
	// as do executors and stages first named by a task.
	var arrivals, ends, nreads, nwrites, nadds, nstages int
	for k := range events {
		switch events[k].Type {
		case eventlog.ClusterArrive:
			arrivals++
		case eventlog.ExecutorAdd:
			nadds++
		case eventlog.StageStart:
			nstages++
		case eventlog.TaskEnd, eventlog.TaskFailed:
			ends++
		case eventlog.ShuffleRead:
			nreads++
		case eventlog.ShuffleWrite:
			nwrites++
		}
	}
	apps = make([]appLog, 0, arrivals)
	index := make(map[string]int32, arrivals)
	tasks := newPerApp[taskIval](ends)
	reads := newPerApp[ioPoint](nreads)
	writes := newPerApp[ioPoint](nwrites)
	execs := newKeyed[execInfo](nadds)
	stages := newKeyed[stageInfo](nstages)
	open := map[openTask]int64{} // open task starts, all apps
	last := int32(-1)            // the previous event's app
	appOf := func(name string) int32 {
		if last >= 0 && apps[last].app == name {
			return last
		}
		i, ok := index[name]
		if !ok {
			i = int32(len(apps))
			apps = append(apps, appLog{
				app: name, arrivalUS: -1, admitUS: -1, endUS: -1, lastExec: -1, lastStage: -1,
			})
			index[name] = i
		}
		last = i
		return i
	}

	for k := range events {
		e := &events[k]
		if e.App == "" {
			if e.Type == eventlog.TmpCacheHit {
				tmpBytes += e.Bytes
			}
			continue
		}
		switch e.Type {
		case eventlog.ClusterArrive:
			al := &apps[appOf(e.App)]
			al.arrivalUS = e.TS
			al.name = e.Note
		case eventlog.ShardAssign, eventlog.ShardSteal:
			// Exec carries the true tenant id; a stolen job's assign and
			// steal events agree on it, so last-writer-wins is safe.
			apps[appOf(e.App)].tenant = e.Exec
		case eventlog.ClusterAdmit:
			apps[appOf(e.App)].admitUS = e.TS
		case eventlog.ClusterDelay:
			apps[appOf(e.App)].delayed = true
		case eventlog.ClusterFinish:
			apps[appOf(e.App)].endUS = e.TS
		case eventlog.ClusterFail:
			al := &apps[appOf(e.App)]
			al.endUS = e.TS
			al.failed = true
		case eventlog.JobStart:
			al := &apps[appOf(e.App)]
			if al.arrivalUS < 0 {
				al.arrivalUS = e.TS
			}
		case eventlog.JobEnd:
			al := &apps[appOf(e.App)]
			if e.TS > al.looseEndUS {
				al.looseEndUS = e.TS
			}
		case eventlog.StageStart:
			a := appOf(e.App)
			_, st := apps[a].stageIndex(&stages, a, e.Stage)
			if !st.started || e.TS < st.startUS {
				st.startUS, st.started = e.TS, true
			}
		case eventlog.TaskStart:
			a := appOf(e.App)
			x, _ := apps[a].execIndex(&execs, a, e.Exec)
			open[openTask{a, x, e.Stage, e.Task}] = e.TS
		case eventlog.TaskEnd, eventlog.TaskFailed:
			a := appOf(e.App)
			al := &apps[a]
			x, xi := al.execIndex(&execs, a, e.Exec)
			k := openTask{a, x, e.Stage, e.Task}
			start, ok := open[k]
			if !ok {
				continue
			}
			delete(open, k)
			if e.TS <= start {
				// Zero-duration occurrences carry no walkable interval
				// and would stall the backward walk.
				continue
			}
			stageIdx, _ := al.stageIndex(&stages, a, e.Stage)
			tasks.add(a, taskIval{
				startUS: start, endUS: e.TS,
				stage: e.Stage, task: e.Task,
				exec: e.Exec, kind: xi.kind,
				execIdx: x, stageIdx: stageIdx,
			})
		case eventlog.ExecutorAdd:
			a := appOf(e.App)
			_, x := apps[a].execIndex(&execs, a, e.Exec)
			x.addUS, x.added = e.TS, true
			if e.Kind != "" {
				x.kind = e.Kind
			}
		case eventlog.ExecutorRemove:
			a := appOf(e.App)
			_, x := apps[a].execIndex(&execs, a, e.Exec)
			x.remUS, x.removed = e.TS, true
		case eventlog.ShuffleRead:
			reads.add(appOf(e.App), ioPoint{tsUS: e.TS, task: e.Task, bytes: e.Bytes})
		case eventlog.ShuffleWrite:
			writes.add(appOf(e.App), ioPoint{tsUS: e.TS, task: e.Task, exec: e.Exec, bytes: e.Bytes})
		}
	}
	tasks.spread(apps, func(al *appLog) *[]taskIval { return &al.tasks })
	reads.spread(apps, func(al *appLog) *[]ioPoint { return &al.reads })
	writes.spread(apps, func(al *appLog) *[]ioPoint { return &al.writes })
	execs.spread(apps, func(al *appLog) *[]execInfo { return &al.execs })
	stages.spread(apps, func(al *appLog) *[]stageInfo { return &al.stages })

	kept := apps[:0]
	var scratch medianScratch
	for i := range apps {
		al := &apps[i]
		// Resolve endpoints: cluster events win; otherwise fall back to
		// the loose bounds observed from engine events and tasks.
		for _, t := range al.tasks {
			if t.endUS > al.looseEndUS {
				al.looseEndUS = t.endUS
			}
			if al.arrivalUS < 0 {
				al.arrivalUS = t.startUS
			}
		}
		if al.endUS < 0 {
			al.endUS = al.looseEndUS
		}
		if al.arrivalUS < 0 {
			al.arrivalUS = 0
		}
		if al.admitUS < 0 || al.admitUS < al.arrivalUS {
			al.admitUS = al.arrivalUS
		}
		if al.endUS < al.admitUS {
			al.endUS = al.admitUS
		}
		// Apps with no tasks and no lifetime carry nothing to attribute.
		if al.endUS == al.arrivalUS && len(al.tasks) == 0 {
			continue
		}
		scratch.computeMedians(al)
		kept = append(kept, *al)
	}
	return kept, tmpBytes
}

// medianScratch is computeMedians' working space, reused across apps.
type medianScratch struct {
	offsets []int
	durs    []int64
}

// computeMedians fills the per-stage median task durations, the
// straggler baseline the walk carves tails against. It buckets the
// durations by stage (a counting sort on the stage index), then sorts
// each bucket.
func (sc *medianScratch) computeMedians(al *appLog) {
	if len(al.tasks) == 0 {
		return
	}
	off := append(sc.offsets[:0], make([]int, len(al.stages)+1)...)
	for _, t := range al.tasks {
		off[t.stageIdx+1]++
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	durs := append(sc.durs[:0], make([]int64, len(al.tasks))...)
	for _, t := range al.tasks {
		durs[off[t.stageIdx]] = t.endUS - t.startUS
		off[t.stageIdx]++
	}
	// Each offset now ends its bucket; the previous one starts it.
	lo := 0
	for i := range al.stages {
		d := durs[lo:off[i]]
		lo = off[i]
		if len(d) > 0 {
			slices.Sort(d)
			al.stages[i].medianUS = d[len(d)/2]
		}
	}
	sc.offsets, sc.durs = off, durs
}

// walkScratch is the backward walk's working space, reused across apps.
type walkScratch struct {
	segs   []Segment
	byExec [][]*taskIval
}

// attributeApp runs the backward critical-path walk over one app and
// converts the path into blame segments that tile [arrival, end], written
// with the job's cause columns into ja.
func (sc *walkScratch) attributeApp(al *appLog, ja *JobAttribution) {
	tenant := al.tenant
	if tenant == "" {
		tenant = tenantOf(al.app)
	}
	*ja = JobAttribution{
		App:        al.app,
		Name:       al.name,
		Tenant:     tenant,
		ArrivalUS:  al.arrivalUS,
		EndUS:      al.endUS,
		MakespanUS: al.endUS - al.arrivalUS,
		Failed:     al.failed,
	}

	// Sort tasks by end time so the walk can binary-search the latest
	// task finishing at or before the cursor.
	tasks := al.tasks
	slices.SortFunc(tasks, func(a, b taskIval) int {
		if c := cmp.Compare(a.endUS, b.endUS); c != 0 {
			return c
		}
		if c := cmp.Compare(a.startUS, b.startUS); c != 0 {
			return c
		}
		if c := cmp.Compare(a.stage, b.stage); c != 0 {
			return c
		}
		if c := cmp.Compare(a.task, b.task); c != 0 {
			return c
		}
		return strings.Compare(a.exec, b.exec)
	})

	// Per-executor index (sorted by end, inherited from the sort above)
	// for the same-executor predecessor lookup.
	for len(sc.byExec) < len(al.execs) {
		sc.byExec = append(sc.byExec, nil)
	}
	byExec := sc.byExec[:len(al.execs)]
	for x := range byExec {
		byExec[x] = byExec[x][:0]
	}
	for i := range tasks {
		x := tasks[i].execIdx
		byExec[x] = append(byExec[x], &tasks[i])
	}

	// Backward walk: segs accumulates in reverse time order. Each
	// iteration explains one slice of the timeline ending at the cursor,
	// then asks what bound the critical task's *start* — the same
	// executor finishing earlier work, the executor registering, or the
	// stage becoming ready — and jumps to that constraint.
	segs := sc.segs[:0]
	cursor := al.endUS
	var forced *taskIval // causal predecessor chosen by the last step
	first := true
	for cursor > al.admitUS {
		t := forced
		forced = nil
		if t == nil {
			t = latestEndingAtOrBefore(tasks, cursor)
			if t == nil {
				detail := "sched"
				if first {
					detail = "driver"
				}
				segs = append(segs, Segment{
					Cause: Compute, StartUS: al.admitUS, EndUS: cursor,
					Stage: -1, Task: -1, Detail: detail,
				})
				cursor = al.admitUS
				break
			}
			if t.endUS < cursor {
				lo := max64(t.endUS, al.admitUS)
				detail := "sched"
				if first {
					detail = "driver"
				}
				segs = append(segs, Segment{
					Cause: Compute, StartUS: lo, EndUS: cursor,
					Stage: -1, Task: -1, Detail: detail,
				})
				cursor = lo
				if cursor <= al.admitUS {
					break
				}
			}
		}
		first = false
		segStart := max64(t.startUS, al.admitUS)
		segs = appendTaskSegments(segs, al, t, segStart, min64(t.endUS, cursor))
		cursor = segStart
		if cursor <= al.admitUS {
			break
		}

		// The three candidate constraints on t's start time.
		bindPrev := int64(-1)
		samePrev := latestOnExec(byExec[t.execIdx], t.startUS)
		if samePrev != nil {
			bindPrev = samePrev.endUS
		}
		x := &al.execs[t.execIdx]
		bindAdd := int64(-1)
		if x.added && x.addUS <= t.startUS {
			bindAdd = x.addUS
		}
		bindStage := int64(-1)
		if st := &al.stages[t.stageIdx]; st.started && st.startUS <= t.startUS {
			bindStage = st.startUS
		}

		switch {
		case samePrev != nil && bindPrev >= bindAdd && bindPrev >= bindStage:
			// Executor busy: chain through the predecessor on the same
			// executor; the sliver in between is dispatch overhead.
			lo := max64(bindPrev, al.admitUS)
			if lo < cursor {
				segs = append(segs, Segment{
					Cause: Compute, StartUS: lo, EndUS: cursor,
					Stage: -1, Task: -1, Detail: "dispatch",
				})
			}
			cursor = lo
			forced = samePrev
		case bindAdd > bindStage && bindAdd > al.admitUS:
			// Executor registration bound the start: the wait from stage
			// readiness (or admission) to registration is boot/cold-start
			// blame on the executor's substrate.
			if bindAdd < cursor {
				segs = append(segs, Segment{
					Cause: Compute, StartUS: bindAdd, EndUS: cursor,
					Stage: -1, Task: -1, Detail: "dispatch",
				})
			}
			hi := min64(bindAdd, cursor)
			lo := max64(bindStage, al.admitUS)
			if hi > lo {
				cause := VMBoot
				if x.kind == "lambda" {
					cause = LambdaColdStart
				}
				segs = append(segs, Segment{
					Cause: cause, StartUS: lo, EndUS: hi, Stage: -1, Task: -1,
					Exec: t.exec, Kind: x.kind, Detail: "executor wait",
				})
			}
			cursor = lo
		case bindStage > al.admitUS:
			// Stage readiness bound the start: jump to the stage-start
			// instant; whichever task ended just before it carries on.
			if bindStage < cursor {
				segs = append(segs, Segment{
					Cause: Compute, StartUS: bindStage, EndUS: cursor,
					Stage: -1, Task: -1, Detail: "dispatch",
				})
			}
			cursor = bindStage
		default:
			// No constraint data inside the window; the next iteration's
			// gap fill labels whatever precedes as scheduler overhead.
		}
	}
	// The admission window.
	if al.admitUS > al.arrivalUS {
		cause := QueueWait
		if al.delayed {
			cause = AdmissionDelay
		}
		segs = append(segs, Segment{
			Cause: cause, StartUS: al.arrivalUS, EndUS: al.admitUS,
			Stage: -1, Task: -1,
		})
	}

	sc.segs = segs

	// Reverse into time order, drop empty segments, and total up. Every
	// blame cause appears in the column, zeros included, so diffs and
	// goldens have a fixed key set.
	n := 0
	for i := range segs {
		if segs[i].DurUS() > 0 {
			n++
		}
	}
	ja.Path = make([]Segment, 0, n)
	for i := len(segs) - 1; i >= 0; i-- {
		if d := segs[i].DurUS(); d > 0 {
			ja.Path = append(ja.Path, segs[i])
			ja.BlameUS.v[causeIndex(segs[i].Cause)] += d
		}
	}
	ja.BlameUS.set = blameCauses
	attachWarmSavings(ja)
	attachDollars(al, ja)
}

// latestEndingAtOrBefore returns the task with the greatest end <=
// cursor (nil when none), preferring — among equal ends — the latest
// start, so the walk consumes the least timeline per step and gaps stay
// attributable.
func latestEndingAtOrBefore(tasks []taskIval, cursor int64) *taskIval {
	lo, hi := 0, len(tasks)
	for lo < hi {
		mid := (lo + hi) / 2
		if tasks[mid].endUS <= cursor {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	best := lo - 1
	for i := best; i >= 0 && tasks[i].endUS == tasks[best].endUS; i-- {
		if tasks[i].startUS > tasks[best].startUS {
			best = i
		}
	}
	return &tasks[best]
}

// latestOnExec returns the latest task in list (sorted by end) ending at
// or before ts — the same-executor predecessor candidate.
func latestOnExec(list []*taskIval, ts int64) *taskIval {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid].endUS <= ts {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	return list[lo-1]
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// appendTaskSegments carves one critical task's window [s, e] into
// straggler-tail, modeled shuffle I/O and compute, appending them to segs
// in reverse time order (the walk accumulates backward).
func appendTaskSegments(segs []Segment, al *appLog, t *taskIval, s, e int64) []Segment {
	d := e - s
	if d <= 0 {
		return segs
	}
	var tail int64
	if med := al.stages[t.stageIdx].medianUS; med > 0 {
		dur := t.endUS - t.startUS
		cut := int64(eventlog.DefaultStragglerFactor * float64(med))
		if dur >= cut && dur > med {
			tail = dur - med
			if tail > d {
				tail = d
			}
		}
	}
	fetch := bytesToUS(taskBytes(al.reads, t, false))
	if fetch > d-tail {
		fetch = d - tail
	}
	write := bytesToUS(taskBytes(al.writes, t, true))
	if write > d-tail-fetch {
		write = d - tail - fetch
	}
	compute := d - tail - fetch - write

	// Time order within the window is fetch, compute, write, tail, so
	// backward from e they come tail first.
	at := e
	for _, part := range [...]struct {
		cause Cause
		dur   int64
	}{{StragglerTail, tail}, {ShuffleWrite, write}, {Compute, compute}, {ShuffleFetch, fetch}} {
		if part.dur <= 0 {
			continue
		}
		segs = append(segs, Segment{
			Cause: part.cause, StartUS: at - part.dur, EndUS: at,
			Stage: t.stage, Task: t.task, Exec: t.exec, Kind: t.kind,
		})
		at -= part.dur
	}
	return segs
}

// taskBytes sums the shuffle bytes attributable to task t: instants
// inside the task's window matching its reduce partition (reads) or its
// executor (writes).
func taskBytes(points []ioPoint, t *taskIval, byExec bool) int64 {
	var sum int64
	for _, p := range points {
		if p.tsUS < t.startUS || p.tsUS > t.endUS {
			continue
		}
		if byExec {
			if p.exec == t.exec {
				sum += p.bytes
			}
		} else if p.task == t.task {
			sum += p.bytes
		}
	}
	return sum
}

// attachWarmSavings credits warm_hit_saved for every critical-path
// executor wait served by a warm-pool environment (executor IDs carry
// the pool's -wNN suffix): the counterfactual is the nominal cold start
// the warm hit avoided.
func attachWarmSavings(ja *JobAttribution) {
	var seen []string
	var saved int64
	credited := false
	for _, seg := range ja.Path {
		if seg.Cause != LambdaColdStart || seg.Exec == "" || slices.Contains(seen, seg.Exec) {
			continue
		}
		if !isWarmExec(seg.Exec) {
			continue
		}
		seen = append(seen, seg.Exec)
		if s := int64(NominalColdStartUS) - seg.DurUS(); s > 0 {
			saved += s
			credited = true
		}
	}
	if credited {
		ja.SavedUS.put(warmHitSavedIdx, saved)
	}
}

// isWarmExec recognises the cluster backend's warm-pool executor naming
// (jNNN-wNN); cold/on-demand Lambda executors use -lNN.
func isWarmExec(exec string) bool {
	i := strings.LastIndex(exec, "-w")
	if i < 0 || i+2 >= len(exec) {
		return false
	}
	for _, r := range exec[i+2:] {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// attachDollars reconstructs the job's spend from executor lifetimes in
// the log at nominal rates and splits it across causes proportionally
// to blame time.
func attachDollars(al *appLog, ja *JobAttribution) {
	total := al.dollars()
	if total <= 0 || ja.MakespanUS <= 0 {
		return
	}
	for i := range numCauses {
		if blameCauses&(1<<i) != 0 {
			ja.CostUSD.put(i, round6(total*float64(ja.BlameUS.v[i])/float64(ja.MakespanUS)))
		}
	}
}

// dollars prices the app's executor lifetimes at nominal rates. An
// executor never removed lives to the job's end. The lifetimes are summed
// in registration order, so the floating-point total is the same every
// run.
func (al *appLog) dollars() float64 {
	var total float64
	for i := range al.execs {
		x := &al.execs[i]
		if !x.added {
			continue
		}
		remUS := x.remUS
		if !x.removed || remUS < x.addUS {
			remUS = al.endUS
		}
		total += execDollars(x.kind, remUS-x.addUS)
	}
	return total
}

// execDollars prices one executor lifetime of lifeUS at the nominal rate
// of its kind; a lifetime that is not positive costs nothing.
func execDollars(kind string, lifeUS int64) float64 {
	life := float64(lifeUS) / 1e6
	switch {
	case life <= 0:
		return 0
	case kind == "lambda":
		return life * lambdaUSDPerSecond()
	default:
		return life * vmUSDPerCoreSecond()
	}
}

func tenantOf(app string) string {
	if i := strings.IndexByte(app, '-'); i > 0 {
		return app[:i]
	}
	return app
}
