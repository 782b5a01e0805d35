package shuffle

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"splitserve/internal/eventlog"
	"splitserve/internal/spark/rdd"
)

func kvKey(r rdd.Row) rdd.Key { return r.(rdd.KV).K }

func sumMerge(a, b rdd.Row) rdd.Row {
	return rdd.KV{K: a.(rdd.KV).K, V: a.(rdd.KV).V.(int) + b.(rdd.KV).V.(int)}
}

func TestPartitionSpreadsByHash(t *testing.T) {
	rows := make([]rdd.Row, 100)
	for i := range rows {
		rows[i] = rdd.KV{K: i, V: 1}
	}
	buckets := Partition(rows, kvKey, 4, nil)
	total := 0
	for _, b := range buckets {
		total += len(b)
	}
	if total != 100 {
		t.Fatalf("partition lost rows: %d", total)
	}
	for i, b := range buckets {
		if len(b) == 0 {
			t.Fatalf("bucket %d empty", i)
		}
		for _, row := range b {
			if rdd.HashKey(kvKey(row), 4) != i {
				t.Fatalf("row in wrong bucket")
			}
		}
	}
}

func TestPartitionCombines(t *testing.T) {
	var rows []rdd.Row
	for i := 0; i < 30; i++ {
		rows = append(rows, rdd.KV{K: i % 3, V: 1})
	}
	buckets := Partition(rows, kvKey, 2, sumMerge)
	count, sum := 0, 0
	for _, b := range buckets {
		for _, row := range b {
			count++
			sum += row.(rdd.KV).V.(int)
		}
	}
	if count != 3 {
		t.Fatalf("combiner left %d rows, want 3", count)
	}
	if sum != 30 {
		t.Fatalf("combiner lost values: sum=%d", sum)
	}
}

func TestRegroupOrdersByKeyAndMap(t *testing.T) {
	m0 := []rdd.Row{rdd.KV{K: "b", V: 1}, rdd.KV{K: "a", V: 2}}
	m1 := []rdd.Row{rdd.KV{K: "a", V: 3}}
	groups := Regroup([][]rdd.Row{m0, m1}, kvKey)
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	if groups[0].Key != "a" || groups[1].Key != "b" {
		t.Fatalf("groups not key-sorted: %v %v", groups[0].Key, groups[1].Key)
	}
	a := groups[0].Rows
	if a[0].(rdd.KV).V.(int) != 2 || a[1].(rdd.KV).V.(int) != 3 {
		t.Fatalf("rows not in map order: %v", a)
	}
}

func TestBlockIDLayout(t *testing.T) {
	got := BlockID("app-1", "exec-vm-2", 3, 7, 11)
	want := "/shuffle/app-1/exec-vm-2/shuffle_3_7_11"
	if got != want {
		t.Fatalf("BlockID = %q, want %q", got, want)
	}
}

// TestAppDirHoldsBlockIDs: every block an application writes lies under
// its AppDir, and under no other application's, even one whose ID
// extends it.
func TestAppDirHoldsBlockIDs(t *testing.T) {
	if got, want := AppDir("app-1"), "/shuffle/app-1/"; got != want {
		t.Fatalf("AppDir = %q, want %q", got, want)
	}
	id := BlockID("app-1", "j012-v03", 2, 3, 4)
	if !strings.HasPrefix(id, AppDir("app-1")) || strings.HasPrefix(id, AppDir("app-10")) {
		t.Fatalf("BlockID %q against AppDir %q and %q", id, AppDir("app-1"), AppDir("app-10"))
	}
	if id := BlockID("app-10", "e", 0, 0, 0); strings.HasPrefix(id, AppDir("app-1")) {
		t.Fatalf("BlockID %q of app-10 lies under app-1's AppDir", id)
	}
}

// TestBlockIDMatchesSprintf: BlockID and the shuffle events' Note are
// built without fmt and must keep the bytes fmt wrote, in every field.
func TestBlockIDMatchesSprintf(t *testing.T) {
	ids := []int{0, 9, 10, 999, 1000, 123456}
	for _, sid := range ids {
		if got, want := shuffleNote(sid), fmt.Sprintf("shuffle_%d", sid); got != want {
			t.Errorf("shuffleNote(%d) = %q, want %q", sid, got, want)
		}
		for _, m := range ids {
			for _, r := range ids {
				got := BlockID("app-7", "j012-v03", sid, m, r)
				want := fmt.Sprintf("/shuffle/%s/%s/shuffle_%d_%d_%d", "app-7", "j012-v03", sid, m, r)
				if got != want {
					t.Errorf("BlockID(%d, %d, %d) = %q, want %q", sid, m, r, got, want)
				}
			}
		}
	}
}

func newStatus(mapPart int, host string, sizes []int64) *MapStatus {
	ids := make([]string, len(sizes))
	for r := range ids {
		ids[r] = BlockID("app", "e"+host, 1, mapPart, r)
	}
	return &MapStatus{MapPart: mapPart, ExecID: "e" + host, HostID: host, BlockIDs: ids, Sizes: sizes}
}

func TestTrackerLifecycle(t *testing.T) {
	tr := NewTracker()
	tr.Register(1, 2, 3)
	if tr.Complete(1) {
		t.Fatal("empty shuffle complete")
	}
	if got := tr.MissingMaps(1); len(got) != 2 {
		t.Fatalf("missing = %v", got)
	}
	tr.AddMapOutput(1, newStatus(0, "h1", []int64{10, 0, 5}))
	tr.AddMapOutput(1, newStatus(1, "h2", []int64{0, 7, 3}))
	if !tr.Complete(1) {
		t.Fatal("shuffle not complete after all maps")
	}
	ids, total, ok := tr.FetchSpec(1, 2)
	if !ok || total != 8 || len(ids) != 2 {
		t.Fatalf("FetchSpec = %v %d %v", ids, total, ok)
	}
	// Empty buckets are skipped.
	ids, total, ok = tr.FetchSpec(1, 1)
	if !ok || total != 7 || len(ids) != 1 {
		t.Fatalf("FetchSpec(1) = %v %d %v", ids, total, ok)
	}
}

// TestTrackerNoteSharedAcrossEvents: every event of one shuffle carries
// the same Note string, bytes and all, so the event log's identity cache
// interns it once; another shuffle's events carry their own.
func TestTrackerNoteSharedAcrossEvents(t *testing.T) {
	tr := NewTracker()
	bus := eventlog.NewBus(time.Time{})
	var notes []string
	bus.Subscribe(func(e eventlog.Event) { notes = append(notes, e.Note) })
	tr.SetEventLog(bus, func() time.Time { return time.Time{} }, "app-1")
	tr.Register(1, 2, 2)
	tr.Register(2, 1, 2)
	tr.AddMapOutput(1, newStatus(0, "h1", []int64{1, 1}))
	tr.AddMapOutput(1, newStatus(1, "h2", []int64{1, 1}))
	tr.FetchSpec(1, 0)
	tr.AddMapOutput(2, newStatus(0, "h1", []int64{1, 1}))
	if len(notes) != 4 || notes[0] != "shuffle_1" || notes[3] != "shuffle_2" {
		t.Fatalf("notes = %q", notes)
	}
	for i := 1; i < 3; i++ {
		if unsafe.StringData(notes[i]) != unsafe.StringData(notes[0]) {
			t.Errorf("event %d of shuffle 1 built its note %q again", i, notes[i])
		}
	}
}

func TestTrackerReRegisterIsNoop(t *testing.T) {
	tr := NewTracker()
	tr.Register(1, 2, 2)
	tr.AddMapOutput(1, newStatus(0, "h1", []int64{1, 1}))
	tr.Register(1, 2, 2)
	if len(tr.MissingMaps(1)) != 1 {
		t.Fatal("re-register wiped outputs")
	}
}

func TestTrackerUnregisterHost(t *testing.T) {
	tr := NewTracker()
	tr.Register(1, 2, 2)
	tr.Register(2, 1, 2)
	tr.AddMapOutput(1, newStatus(0, "h1", []int64{1, 1}))
	tr.AddMapOutput(1, newStatus(1, "h2", []int64{1, 1}))
	tr.AddMapOutput(2, newStatus(0, "h1", []int64{1, 1}))
	affected := tr.UnregisterHost("h1")
	if len(affected) != 2 || affected[0] != 1 || affected[1] != 2 {
		t.Fatalf("affected = %v", affected)
	}
	if got := tr.MissingMaps(1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("missing after host loss = %v", got)
	}
	if _, _, ok := tr.FetchSpec(1, 0); ok {
		t.Fatal("FetchSpec should fail with missing maps")
	}
	if tr.UnregisterHost("h3") != nil {
		t.Fatal("unknown host affected shuffles")
	}
}

func TestTrackerPanicsOnUnknownShuffle(t *testing.T) {
	tr := NewTracker()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Complete(9)
}

func TestTrackerDims(t *testing.T) {
	tr := NewTracker()
	tr.Register(4, 5, 6)
	if tr.Maps(4) != 5 || tr.Reduces(4) != 6 {
		t.Fatalf("dims = %d x %d", tr.Maps(4), tr.Reduces(4))
	}
}

// Property: partition + regroup round-trips the multiset of values, with or
// without combining, and the combined total is preserved.
func TestQuickPartitionRegroupConservation(t *testing.T) {
	prop := func(vals []int8, parts uint8) bool {
		p := int(parts%8) + 1
		rows := make([]rdd.Row, len(vals))
		sum := 0
		for i, v := range vals {
			rows[i] = rdd.KV{K: int(v % 5), V: 1}
			sum++
			_ = v
		}
		buckets := Partition(rows, kvKey, p, sumMerge)
		groups := Regroup(buckets, kvKey)
		got := 0
		for _, g := range groups {
			for _, r := range g.Rows {
				got += r.(rdd.KV).V.(int)
			}
		}
		return got == sum
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: regroup output keys are strictly increasing (deterministic
// order, no duplicate groups).
func TestQuickRegroupKeyOrder(t *testing.T) {
	prop := func(vals []int16) bool {
		rows := make([]rdd.Row, len(vals))
		for i, v := range vals {
			rows[i] = rdd.KV{K: int(v), V: i}
		}
		groups := Regroup([][]rdd.Row{rows}, kvKey)
		for i := 1; i < len(groups); i++ {
			if !rdd.KeyLess(groups[i-1].Key, groups[i].Key) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
