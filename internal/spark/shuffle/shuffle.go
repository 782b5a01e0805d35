// Package shuffle implements the engine's shuffle machinery: hash
// partitioning of map-task output into reduce buckets (with optional
// map-side combining), deterministic regrouping on the reduce side, Spark-
// style block naming rooted at executor IDs (the paper keeps "the Spark
// semantics of directory structure; both VM- and Lambda-based executors use
// their uniquely identifiable IDs as an entry point"), and the map-output
// tracker the DAG scheduler consults to locate shuffle data and to detect
// lost outputs after an executor or host dies.
package shuffle

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"splitserve/internal/eventlog"
	"splitserve/internal/spark/rdd"
)

// Partition splits rows into parts buckets by keyFn. If mergeFn is non-nil
// rows with equal keys are combined within each bucket (map-side combine),
// reducing shuffle volume exactly like Spark's reduceByKey combiner.
func Partition(rows []rdd.Row, keyFn func(rdd.Row) rdd.Key, parts int, mergeFn func(a, b rdd.Row) rdd.Row) [][]rdd.Row {
	buckets := make([][]rdd.Row, parts)
	if mergeFn == nil {
		for _, row := range rows {
			b := rdd.HashKey(keyFn(row), parts)
			buckets[b] = append(buckets[b], row)
		}
		return buckets
	}
	// Combine: keep per-bucket insertion order of first key occurrence so
	// output is deterministic. A key hashes to exactly one bucket, so one
	// map from key to its (bucket, index) slot serves every bucket.
	type slot struct{ bucket, idx int32 }
	slots := make(map[rdd.Key]slot, mapHint(len(rows)))
	for _, row := range rows {
		k := keyFn(row)
		if s, ok := slots[k]; ok {
			buckets[s.bucket][s.idx] = mergeFn(buckets[s.bucket][s.idx], row)
			continue
		}
		b := rdd.HashKey(k, parts)
		slots[k] = slot{bucket: int32(b), idx: int32(len(buckets[b]))}
		buckets[b] = append(buckets[b], row)
	}
	return buckets
}

// maxMapHint caps the size hint of a map keyed by row keys: sized by row
// count alone, a few-keys, many-rows input would allocate a map far larger
// than its distinct keys. Past the cap the map grows on its own. Any hint
// up to 512 fits one table of Go's map, so the map's allocation count does
// not depend on the hint (TestRegroupAllocsBounded).
const maxMapHint = 512

// mapHint is the size hint for a map of the distinct keys among rows rows.
func mapHint(rows int) int { return min(rows, maxMapHint) }

// Regroup builds key groups from fetched map buckets (ordered by map
// partition). Groups are sorted by key; rows within a group preserve
// (map partition, row) order — fully deterministic.
//
// One pass numbers each distinct key in first-seen order and records every
// row's group; only the distinct keys are sorted; a counting pass then
// places the rows into one backing slice. Each group's Rows is capped at
// its own end, so an append to one group never overwrites the next.
func Regroup(bucketsByMap [][]rdd.Row, keyFn func(rdd.Row) rdd.Key) []rdd.Group {
	total := 0
	for _, bucket := range bucketsByMap {
		total += len(bucket)
	}
	hint := mapHint(total)
	index := make(map[rdd.Key]int32, hint)
	keys := make([]firstSeen, 0, hint) // distinct keys, in first-seen order
	counts := make([]int, 0, hint)     // rows per group, by first-seen number
	groupOf := make([]int32, total)
	r := 0
	for _, bucket := range bucketsByMap {
		for _, row := range bucket {
			k := keyFn(row)
			g, ok := index[k]
			if !ok {
				g = int32(len(keys))
				index[k] = g
				keys = append(keys, firstSeen{key: k, group: g})
				counts = append(counts, 0)
			}
			counts[g]++
			groupOf[r] = g
			r++
		}
	}
	// Keys are distinct, so any sort gives the one key order.
	slices.SortFunc(keys, func(a, b firstSeen) int { return rdd.KeyCompare(a.key, b.key) })

	rows := make([]rdd.Row, total)
	groups := make([]rdd.Group, len(keys))
	start := 0
	for i, ks := range keys {
		end := start + counts[ks.group]
		groups[i] = rdd.Group{Key: ks.key, Rows: rows[start:end:end]}
		counts[ks.group] = start // from here on: the group's next free row
		start = end
	}
	r = 0
	for _, bucket := range bucketsByMap {
		for _, row := range bucket {
			g := groupOf[r]
			rows[counts[g]] = row
			counts[g]++
			r++
		}
	}
	return groups
}

// firstSeen is a distinct key and its number in first-seen order.
type firstSeen struct {
	key   rdd.Key
	group int32
}

// BlockID names one shuffle block the way the paper's HDFS layout does:
// the writing executor's unique ID is the directory entry point, under
// the application's AppDir.
func BlockID(appID, execID string, shuffleID, mapPart, reducePart int) string {
	buf := appendAppDir(make([]byte, 0, 64), appID)
	buf = append(buf, execID...)
	buf = append(buf, "/shuffle_"...)
	buf = strconv.AppendInt(buf, int64(shuffleID), 10)
	buf = append(buf, '_')
	buf = strconv.AppendInt(buf, int64(mapPart), 10)
	buf = append(buf, '_')
	buf = strconv.AppendInt(buf, int64(reducePart), 10)
	return string(buf)
}

// AppDir is the directory that holds every shuffle block of application
// appID: "/shuffle/<appID>/". Removing it drops the application's shuffle
// data, as Spark does when an application ends.
func AppDir(appID string) string {
	var buf [64]byte
	return string(appendAppDir(buf[:0], appID))
}

func appendAppDir(buf []byte, appID string) []byte {
	buf = append(buf, "/shuffle/"...)
	buf = append(buf, appID...)
	return append(buf, '/')
}

// shuffleNote is the Note of a shuffle's write and read events.
func shuffleNote(shuffleID int) string { return "shuffle_" + strconv.Itoa(shuffleID) }

// MapStatus records where one map partition's output lives.
type MapStatus struct {
	MapPart int
	ExecID  string
	HostID  string
	// BlockIDs[r] and Sizes[r] describe the bucket for reduce partition r;
	// empty buckets have Sizes[r] == 0 and are never fetched.
	BlockIDs []string
	Sizes    []int64
}

// shuffleState tracks one registered shuffle.
type shuffleState struct {
	maps    int
	reduces int
	status  []*MapStatus // index by map partition; nil = missing
	// note is the Note of the shuffle's events, built once so they all
	// share one string the event log interns once.
	note string
}

// Tracker is the driver-side map-output tracker.
type Tracker struct {
	shuffles map[int]*shuffleState

	bus      *eventlog.Bus
	busNow   func() time.Time
	eventApp string
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{shuffles: make(map[int]*shuffleState)}
}

// Register declares a shuffle with its map and reduce partition counts.
// Re-registering is a no-op (stage resubmission reuses the registration).
func (t *Tracker) Register(shuffleID, maps, reduces int) {
	if _, ok := t.shuffles[shuffleID]; ok {
		return
	}
	t.shuffles[shuffleID] = &shuffleState{
		maps:    maps,
		reduces: reduces,
		status:  make([]*MapStatus, maps),
		note:    shuffleNote(shuffleID),
	}
}

// SetEventLog attaches an event-log bus: every registered map output emits
// a shuffle_write event and every successful fetch spec a shuffle_read,
// stamped with now() on the virtual clock and tagged app.
func (t *Tracker) SetEventLog(bus *eventlog.Bus, now func() time.Time, app string) {
	t.bus = bus
	t.busNow = now
	t.eventApp = app
}

// AddMapOutput records a completed map partition.
func (t *Tracker) AddMapOutput(shuffleID int, st *MapStatus) {
	s := t.mustGet(shuffleID)
	if st.MapPart < 0 || st.MapPart >= s.maps {
		panic(fmt.Sprintf("shuffle: map part %d out of range", st.MapPart))
	}
	s.status[st.MapPart] = st
	if t.bus != nil {
		var total int64
		for _, sz := range st.Sizes {
			total += sz
		}
		ev := eventlog.Ev(eventlog.ShuffleWrite)
		ev.App = t.eventApp
		ev.Exec = st.ExecID
		ev.Task = st.MapPart
		ev.Bytes = total
		ev.Note = s.note
		t.bus.Emit(t.busNow(), ev)
	}
}

// Complete reports whether every map partition has registered output.
func (t *Tracker) Complete(shuffleID int) bool {
	s := t.mustGet(shuffleID)
	for _, st := range s.status {
		if st == nil {
			return false
		}
	}
	return true
}

// MissingMaps returns the map partitions without registered output.
func (t *Tracker) MissingMaps(shuffleID int) []int {
	s := t.mustGet(shuffleID)
	var out []int
	for i, st := range s.status {
		if st == nil {
			out = append(out, i)
		}
	}
	return out
}

// FetchSpec returns the non-empty block IDs and total bytes a reduce
// partition must fetch, ordered by map partition. ok is false if any map
// output is missing (fetch failure — triggers parent-stage resubmission).
func (t *Tracker) FetchSpec(shuffleID, reducePart int) (ids []string, total int64, ok bool) {
	s := t.mustGet(shuffleID)
	for _, st := range s.status {
		if st == nil {
			return nil, 0, false
		}
		if st.Sizes[reducePart] > 0 {
			ids = append(ids, st.BlockIDs[reducePart])
			total += st.Sizes[reducePart]
		}
	}
	if t.bus != nil {
		ev := eventlog.Ev(eventlog.ShuffleRead)
		ev.App = t.eventApp
		ev.Task = reducePart
		ev.Bytes = total
		ev.Note = s.note
		t.bus.Emit(t.busNow(), ev)
	}
	return ids, total, true
}

// UnregisterHost invalidates every map output living on hostID (the host
// died and, for host-local storage, its blocks died with it). It returns
// the affected shuffle IDs.
func (t *Tracker) UnregisterHost(hostID string) []int {
	var affected []int
	for id, s := range t.shuffles {
		touched := false
		for i, st := range s.status {
			if st != nil && st.HostID == hostID {
				s.status[i] = nil
				touched = true
			}
		}
		if touched {
			affected = append(affected, id)
		}
	}
	sort.Ints(affected)
	return affected
}

// Reduces returns the reduce partition count of a shuffle.
func (t *Tracker) Reduces(shuffleID int) int { return t.mustGet(shuffleID).reduces }

// Maps returns the map partition count of a shuffle.
func (t *Tracker) Maps(shuffleID int) int { return t.mustGet(shuffleID).maps }

func (t *Tracker) mustGet(shuffleID int) *shuffleState {
	s, ok := t.shuffles[shuffleID]
	if !ok {
		panic(fmt.Sprintf("shuffle: unknown shuffle %d", shuffleID))
	}
	return s
}
