package eventlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"
)

// marshalLines is the reference encoding: json.Marshal of each event
// followed by a newline.
func marshalLines(t testing.TB, events []Event) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, e := range events {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(line)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// FuzzWriteJSONL is the differential check of the hand-written encoder:
// for any value of every Event field, WriteJSONL must write exactly what
// json.Marshal does, plus the newline.
func FuzzWriteJSONL(f *testing.F) {
	seeds := []Event{
		{TS: 0, Type: TaskEnd, Stage: -1, Task: -1},
		{TS: math.MinInt64, Type: "", Stage: 0, Task: 0, Cores: 0, Bytes: 0},
		{TS: math.MaxInt64, Type: ClusterArrive, App: "j000-sparkpi", Exec: "j000-l03", Kind: "lambda",
			Stage: math.MaxInt32, Task: math.MinInt32, Cores: -4, Bytes: math.MinInt64, Note: "sparkpi"},
		{TS: -1, Type: CostPick, Note: "R<8 & cost>$0.1", Cores: -1, Bytes: -1},
		{Type: "\b\f\n\r\t\x00\x1f\x7f", App: "<script>", Exec: `a"b\c`, Kind: "&amp;"},
		{Type: Segue, Note: "line\u2028sep\u2029para", App: "é", Exec: "日本"},
		{Type: TaskStart, Note: "bad \xff\xfe utf8", App: "\xc3", Exec: "x\x80y", Kind: "\xed\xa0\x80"},
		{Type: ShuffleRead, Note: "\ufffd replacement", Stage: -7, Task: -8, Cores: 1 << 40, Bytes: 1 << 62},
	}
	for _, e := range seeds {
		f.Add(e.TS, string(e.Type), e.App, e.Exec, e.Kind, e.Stage, e.Task, e.Cores, e.Bytes, e.Note)
	}
	f.Fuzz(func(t *testing.T, ts int64, typ, app, exec, kind string, stage, task, cores int, nbytes int64, note string) {
		e := Event{TS: ts, Type: Type(typ), App: app, Exec: exec, Kind: kind,
			Stage: stage, Task: task, Cores: cores, Bytes: nbytes, Note: note}
		var got bytes.Buffer
		if err := WriteJSONL(&got, []Event{e}); err != nil {
			t.Fatal(err)
		}
		if want := marshalLines(t, []Event{e}); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("WriteJSONL(%#v)\n got %q\nwant %q", e, got.Bytes(), want)
		}
	})
}

// writeCounter records how many Write calls reach it and the largest.
type writeCounter struct {
	bytes.Buffer
	calls, largest int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.calls++
	w.largest = max(w.largest, len(p))
	return w.Buffer.Write(p)
}

// TestWriteJSONLFlushes: a log longer than the encoder's buffer reaches
// the writer in pieces of about jsonlFlushAt, and the pieces join into
// the reference bytes.
func TestWriteJSONLFlushes(t *testing.T) {
	var events []Event
	for i := 0; i < 5000; i++ {
		e := Ev(allTypes[i%len(allTypes)])
		e.TS = int64(i) * 997
		e.App = fmt.Sprintf("j%03d-app", i%50)
		if i%3 == 0 {
			e.Exec, e.Kind, e.Cores = fmt.Sprintf("j%03d-v%02d", i%50, i%7), "vm", i%5
		}
		if i%4 == 0 {
			e.Stage, e.Task, e.Bytes = i%9, i%13, int64(i)<<20
		}
		if i%10 == 0 {
			e.Note = "<&> note"
		}
		events = append(events, e)
	}
	var w writeCounter
	if err := WriteJSONL(&w, events); err != nil {
		t.Fatal(err)
	}
	if want := marshalLines(t, events); !bytes.Equal(w.Bytes(), want) {
		t.Fatal("WriteJSONL differs from json.Marshal per line")
	}
	if w.calls < 2 || w.largest > jsonlFlushAt+1024 {
		t.Errorf("%d writes, largest %d bytes: want several of about %d", w.calls, w.largest, jsonlFlushAt)
	}
}

// TestEncodeEscapesWithoutAllocating: the notes of shard_steal
// ("s0->s1") and warmpool_resize ("4->6") carry '>', which the encoder
// escapes inline; encoding such an event allocates nothing.
func TestEncodeEscapesWithoutAllocating(t *testing.T) {
	e := Ev(ShardSteal)
	e.TS, e.App, e.Exec, e.Cores, e.Note = 1_234_567, "s1-j042-sparkpi", "tenant-07", 4, "s0->s1"
	enc := newJSONLEncoder(io.Discard)
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := enc.encode(&e); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("encoding a shard_steal event: %v allocs, want 0", allocs)
	}
}
