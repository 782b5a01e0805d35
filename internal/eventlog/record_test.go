package eventlog

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestRecordHasNoPointers: a stored event holds nothing the garbage
// collector has to scan, and fits in 48 bytes.
func TestRecordHasNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("record", reflect.TypeOf(record{}))
	if size := unsafe.Sizeof(record{}); size > 48 {
		t.Errorf("a record is %d bytes, want at most 48", size)
	}
}

// TestEmitAllocatesNothing: an emitted event whose strings the bus has
// already seen costs no allocation while its chunk has room.
func TestEmitAllocatesNothing(t *testing.T) {
	b := NewBus(testOrigin)
	e := Ev(TaskEnd)
	e.App, e.Exec, e.Kind, e.Stage, e.Task, e.Bytes, e.Note = "j042-sparkpi", "j042-l03", "lambda", 1, 7, 64<<10, "ok"
	// Past the first chunk, which grows by append, into one made at full
	// size.
	for i := 0; i <= chunkSize; i++ {
		b.Emit(testOrigin, e)
	}
	if allocs := testing.AllocsPerRun(1000, func() { b.Emit(testOrigin, e) }); allocs != 0 {
		t.Errorf("an emitted event: %v allocs, want 0", allocs)
	}
}

// TestEmitPanicsOnOverflow: Stage, Task and Cores are stored as int32,
// so a value outside that range panics and records nothing, while the
// range's own ends and a full int64 Bytes go through.
func TestEmitPanicsOnOverflow(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int is 32 bits: no value can overflow")
	}
	b := NewBus(testOrigin)
	for _, v := range []int64{math.MaxInt32 + 1, math.MinInt32 - 1, math.MaxInt64} {
		for field := 0; field < 3; field++ {
			e := Ev(TaskEnd)
			*[]*int{&e.Stage, &e.Task, &e.Cores}[field] = int(v)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("field %d = %d: no panic", field, v)
					}
				}()
				b.Emit(testOrigin, e)
			}()
		}
	}
	if b.Len() != 0 {
		t.Fatalf("%d events recorded by panicking emits", b.Len())
	}
	e := Ev(TaskEnd)
	e.Stage, e.Task, e.Cores, e.Bytes = math.MaxInt32, math.MinInt32, math.MinInt32, math.MaxInt64
	b.Emit(testOrigin, e)
	if got := b.Events(); len(got) != 1 || got[0] != e {
		t.Errorf("the int32 range's ends: got %+v, want %+v", got, e)
	}
}

// TestInternByIdentity: the string table is keyed by where a string's
// bytes live, not by what they say, so every way two strings can share
// or not share storage must still decode to the emitted stream, through
// Events and JSONL alike.
func TestInternByIdentity(t *testing.T) {
	long := "j000-sparkpi-with-a-long-name"
	many := make([]string, 3<<internBits)
	for i := range many {
		many[i] = fmt.Sprintf("j%05d-exec", i)
	}
	cases := []struct {
		name string
		// emit calls add once per event, in emission order.
		emit func(add func(app, exec, kind, note string))
		// maxStrs bounds the string table when the cache must hit.
		maxStrs int
	}{
		{"equal bytes at different addresses", func(add func(app, exec, kind, note string)) {
			for i := 0; i < 100; i++ {
				add("app-1", strings.Clone("app-1"), strconv.Itoa(i%3), "app-"+strconv.Itoa(1+i%2))
			}
		}, 0},
		{"a string and its prefix", func(add func(app, exec, kind, note string)) {
			for i := 0; i < 100; i++ {
				n := 1 + i%len(long)
				add(long, long[:n], long[:4], long[:n/2])
			}
		}, 0},
		{"more strings than cache slots", func(add func(app, exec, kind, note string)) {
			for round := 0; round < 3; round++ {
				for i := range many {
					j := (i*7919 + round) % len(many)
					add(many[i], many[j], "vm", many[(i+j)%len(many)])
				}
			}
		}, 0},
		{"empty strings", func(add func(app, exec, kind, note string)) {
			empty := long[:0]
			for i := 0; i < 100; i++ {
				add("", empty, strings.Clone(""), "")
			}
		}, 1},
		{"one string repeated", func(add func(app, exec, kind, note string)) {
			for i := 0; i < 10*chunkSize; i++ {
				add(long, long, long, long)
			}
		}, 2},
	}
	for _, tc := range cases {
		b := NewBus(testOrigin)
		var flat []Event
		tc.emit(func(app, exec, kind, note string) {
			e := Ev(ShuffleRead)
			e.App, e.Exec, e.Kind, e.Note = app, exec, kind, note
			e.Task = len(flat)
			b.Emit(at(time.Duration(len(flat))*time.Microsecond), e)
			e.TS = int64(len(flat))
			flat = append(flat, e)
		})
		if got := b.Events(); !slices.Equal(got, flat) {
			t.Errorf("%s: Events differ from the emitted stream", tc.name)
		}
		var want bytes.Buffer
		if err := WriteJSONL(&want, flat); err != nil {
			t.Fatal(err)
		}
		if js, err := b.JSONL(); err != nil || !bytes.Equal(js, want.Bytes()) {
			t.Errorf("%s: JSONL differs from WriteJSONL over the emitted stream (err %v)", tc.name, err)
		}
		if tc.maxStrs > 0 && len(b.strs) > tc.maxStrs {
			t.Errorf("%s: %d table entries for %d events, want at most %d", tc.name, len(b.strs), len(flat), tc.maxStrs)
		}
	}
}
