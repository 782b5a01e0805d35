package engine

import (
	"errors"
	"fmt"

	"splitserve/internal/eventlog"
	"splitserve/internal/spark/rdd"
	"splitserve/internal/spark/shuffle"
	"splitserve/internal/storage"
)

// runTask executes one task on one executor. The real computation (rows
// through the narrow chain, shuffle regrouping, joins) happens eagerly;
// time is charged in three phases — input fetch (flows), compute (the
// executor performance model), output write (flows) — after which the
// scheduler is notified.
func (s *scheduler) runTask(t *Task, e *Executor) {
	e.State = ExecBusy
	e.current = t
	t.Exec = e
	t.State = TaskRunning
	if d := s.dispatchDelay(); d > 0 {
		s.c.cfg.Clock.After(d, func() {
			if t.cancelled {
				return
			}
			s.startTaskBody(t, e)
		})
		return
	}
	s.startTaskBody(t, e)
}

// startTaskBody begins the fetch/compute/write pipeline once the driver
// has dispatched the task.
func (s *scheduler) startTaskBody(t *Task, e *Executor) {
	t.startedAt = s.c.cfg.Clock.Now()
	s.c.Emit(eventlog.Event{
		Type: eventlog.TaskStart, Exec: e.ID, Kind: e.Kind.String(), Stage: t.Stage.ID, Task: t.Part,
	})
	s.c.insts.tasksStarted[kindIdx(e.Kind)].Inc()

	chain := t.Stage.chain

	// Cache cut: start from the deepest cached node resident on this
	// executor.
	for i := len(chain) - 1; i >= 0; i-- {
		if !chain[i].Cached {
			continue
		}
		if rows, ok := e.cache.get(cachedPart{rddID: chain[i].ID, part: t.Part}); ok {
			bytes := int64(len(rows)) * int64(chain[i].RowBytes)
			s.computeAndWrite(t, e, chain, i, rows, 0, bytes)
			return
		}
	}

	leaf := chain[0]
	switch leaf.Kind {
	case rdd.KindSource:
		rows := leaf.Gen(t.Part)
		work := float64(len(rows)) * leaf.CostPerRow
		bytes := int64(len(rows)) * int64(leaf.RowBytes)
		s.finishLeaf(t, e, chain, rows, work, bytes)

	case rdd.KindShuffled:
		sid := s.c.shuffleIDFor(leaf, 0)
		s.fetchSide(t, e, sid, func(buckets [][]rdd.Row, fetched int64) {
			groups := shuffle.Regroup(buckets, leaf.KeyFn)
			rows := leaf.PostShuffleFn(t.Part, groups)
			work := s.readWork(leaf, buckets, fetched)
			bytes := fetched + int64(len(rows))*int64(leaf.RowBytes)
			s.finishLeaf(t, e, chain, rows, work, bytes)
		})

	case rdd.KindCoGrouped:
		leftSID := s.c.shuffleIDFor(leaf, 0)
		rightSID := s.c.shuffleIDFor(leaf, 1)
		s.fetchSide(t, e, leftSID, func(lb [][]rdd.Row, lBytes int64) {
			s.fetchSide(t, e, rightSID, func(rb [][]rdd.Row, rBytes int64) {
				left := shuffle.Regroup(lb, leaf.LeftKeyFn)
				right := shuffle.Regroup(rb, leaf.RightKeyFn)
				rows := leaf.CoGroupFn(t.Part, left, right)
				work := s.readWork(leaf, lb, lBytes) + s.readWork(leaf, rb, rBytes)
				bytes := lBytes + rBytes + int64(len(rows))*int64(leaf.RowBytes)
				s.finishLeaf(t, e, chain, rows, work, bytes)
			})
		})

	default:
		panic("engine: impossible leaf kind")
	}
}

// readWork charges CPU for consuming fetched rows: the wide node's per-row
// cost plus deserialization per byte.
func (s *scheduler) readWork(leaf *rdd.RDD, buckets [][]rdd.Row, bytes int64) float64 {
	n := 0
	for _, b := range buckets {
		n += len(b)
	}
	return float64(n)*leaf.CostPerRow + float64(bytes)*serUnitsPerByte
}

// fetchSide pulls the shuffle blocks for (shuffleID, t.Part), delivering
// per-map-partition row buckets. Fetch failure goes through the rollback
// path.
func (s *scheduler) fetchSide(t *Task, e *Executor, shuffleID int, k func(buckets [][]rdd.Row, bytes int64)) {
	ids, total, ok := s.c.tracker.FetchSpec(shuffleID, t.Part)
	if !ok {
		s.onFetchFailed(t, e, shuffleID)
		return
	}
	fetchStart := s.c.cfg.Clock.Now()
	if len(ids) == 0 {
		s.c.cfg.Clock.After(0, func() {
			if t.cancelled {
				return
			}
			k(nil, 0)
		})
		return
	}
	s.c.cfg.Store.FetchAll(ids, e.IO, func(blocks []storage.Block, err error) {
		if t.cancelled {
			return
		}
		if err != nil {
			if errors.Is(err, storage.ErrNotFound) {
				s.onFetchFailed(t, e, shuffleID)
				return
			}
			t.Job.complete(fmt.Errorf("engine: shuffle fetch: %w", err))
			return
		}
		buckets := make([][]rdd.Row, len(blocks))
		for i, b := range blocks {
			rows, okRows := b.Payload.([]rdd.Row)
			if !okRows && b.Payload != nil {
				t.Job.complete(fmt.Errorf("engine: shuffle block %s has payload %T", b.ID, b.Payload))
				return
			}
			buckets[i] = rows
		}
		s.c.insts.shuffleRead[kindIdx(e.Kind)].Add(float64(total))
		s.c.insts.fetchLatency[kindIdx(e.Kind)].ObserveDuration(s.c.cfg.Clock.Now().Sub(fetchStart))
		k(buckets, total)
	})
}

// finishLeaf continues from materialised leaf rows (index 0 of the chain).
func (s *scheduler) finishLeaf(t *Task, e *Executor, chain []*rdd.RDD, rows []rdd.Row, work float64, inBytes int64) {
	if chain[0].Cached {
		s.c.cachePut(e, cachedPart{rddID: chain[0].ID, part: t.Part}, rows, int64(len(rows))*int64(chain[0].RowBytes))
	}
	s.computeAndWrite(t, e, chain, 0, rows, work, inBytes)
}

// computeAndWrite applies the narrow chain above startIdx, charges compute
// time, then writes the stage output (shuffle buckets or a result flow).
func (s *scheduler) computeAndWrite(t *Task, e *Executor, chain []*rdd.RDD, startIdx int, rows []rdd.Row, work float64, inBytes int64) {
	for i := startIdx + 1; i < len(chain); i++ {
		node := chain[i]
		work += float64(len(rows)) * node.CostPerRow
		rows = node.NarrowFn(t.Part, rows)
		if node.Cached {
			s.c.cachePut(e, cachedPart{rddID: node.ID, part: t.Part}, rows, int64(len(rows))*int64(node.RowBytes))
		}
	}
	target := chain[len(chain)-1]
	outBytes := int64(len(rows)) * int64(target.RowBytes)

	if t.Stage.Kind == StageShuffleMap {
		wide := t.Stage.Wide
		keyFn := keyFnFor(wide, t.Stage.Side)
		buckets := shuffle.Partition(rows, keyFn, wide.Parts, mergeFnFor(wide))
		var blocks []storage.Block
		status := &shuffle.MapStatus{
			MapPart:  t.Part,
			ExecID:   e.ID,
			HostID:   e.HostID,
			BlockIDs: make([]string, wide.Parts),
			Sizes:    make([]int64, wide.Parts),
		}
		var shuffleBytes int64
		for r, bucket := range buckets {
			id := shuffle.BlockID(s.c.cfg.AppID, e.ID, t.Stage.ShuffleID, t.Part, r)
			status.BlockIDs[r] = id
			size := int64(len(bucket)) * int64(target.RowBytes)
			status.Sizes[r] = size
			shuffleBytes += size
			if size > 0 {
				blocks = append(blocks, storage.Block{ID: id, Payload: bucket, Size: size})
			}
		}
		s.c.insts.shuffleWritten[kindIdx(e.Kind)].Add(float64(shuffleBytes))
		s.c.insts.blocksWritten.Add(float64(len(blocks)))
		work += float64(shuffleBytes) * serUnitsPerByte
		d := e.ComputeTime(work, inBytes+outBytes, s.c.cfg.Clock.Now())
		s.c.cfg.Clock.After(d, func() {
			if t.cancelled {
				return
			}
			s.c.cfg.Store.PutAll(blocks, e.IO, func(err error) {
				if t.cancelled {
					return
				}
				if err != nil {
					t.Job.complete(fmt.Errorf("engine: shuffle write: %w", err))
					return
				}
				s.c.tracker.AddMapOutput(t.Stage.ShuffleID, status)
				s.onTaskFinished(t, e)
			})
		})
		return
	}

	// Result stage: rows flow back to the driver.
	d := e.ComputeTime(work, inBytes+outBytes, s.c.cfg.Clock.Now())
	finalRows := rows
	s.c.cfg.Clock.After(d, func() {
		if t.cancelled {
			return
		}
		deliver := func() {
			if t.cancelled {
				return
			}
			if finalRows == nil {
				finalRows = []rdd.Row{}
			}
			t.Job.results[t.Part] = finalRows
			s.onTaskFinished(t, e)
		}
		if outBytes > 0 && len(e.IO.Net) > 0 {
			s.c.cfg.Net.StartFlow(float64(outBytes), e.IO.RateCap, e.IO.Net, deliver)
		} else {
			s.c.cfg.Clock.After(0, deliver)
		}
	})
}
