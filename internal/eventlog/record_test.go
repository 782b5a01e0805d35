package eventlog

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestRecordHasNoPointers: a stored event holds nothing the garbage
// collector has to scan, and fits in 32 bytes; nor does a wide entry,
// which fits in 16.
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
	walk("wide", reflect.TypeOf(wide{}))
	if size := unsafe.Sizeof(record{}); size > 32 {
		t.Errorf("a record is %d bytes, want at most 32", size)
	}
	if size := unsafe.Sizeof(wide{}); size > 16 {
		t.Errorf("a wide entry is %d bytes, want at most 16", size)
	}
}

// TestEmitAllocatesNothing: an emitted event whose strings the bus has
// already seen costs no allocation while its chunks have room, whether
// it fits a record or also takes a wide entry.
func TestEmitAllocatesNothing(t *testing.T) {
	compact := Ev(TaskEnd)
	compact.App, compact.Exec, compact.Kind, compact.Stage, compact.Task, compact.Cores, compact.Note =
		"j042-sparkpi", "j042-l03", "lambda", 1, 7, 2, "ok"
	wideBytes := compact
	wideBytes.Bytes = 64 << 10
	wideCores := compact
	wideCores.Cores = math.MaxInt16 + 1
	for _, tc := range []struct {
		name string
		e    Event
		wide bool
	}{{"compact", compact, false}, {"with bytes", wideBytes, true}, {"with wide cores", wideCores, true}} {
		b := NewBus(testOrigin)
		// Past the first chunk, which grows by append, into one made at
		// full size, in the records and the wide entries alike.
		for i := 0; i <= chunkSize; i++ {
			b.Emit(testOrigin, tc.e)
		}
		if allocs := testing.AllocsPerRun(1000, func() { b.Emit(testOrigin, tc.e) }); allocs != 0 {
			t.Errorf("%s: an emitted event: %v allocs, want 0", tc.name, allocs)
		}
		if wides := b.wides.n; (wides > 0) != tc.wide {
			t.Errorf("%s: %d wide entries for %d events", tc.name, wides, b.Len())
		}
	}
}

// steadyEvents is the length of the seed-1 steady log of the benchmark.
const steadyEvents = 274_035

// TestBusBytesPerEvent: the capacity of a bus's record and wide-entry
// chunks, per event, over a log as long as the benchmark's steady one. A
// steady-shaped stream takes a record per event: no bytes, cores at most
// 2, and three kinds, one in eight of them an equal copy at a new
// address, among app and executor names built afresh for each job of 27
// events, which evict one another from the intern cache. A
// shuffle-shaped one, where three events in ten carry bytes, adds a wide
// entry for each of those.
func TestBusBytesPerEvent(t *testing.T) {
	kinds := []string{"vm", "lambda", "warm"}
	for _, tc := range []struct {
		name      string
		bytesFrac float64
		max       float64
	}{{"steady-shaped", 0, 33}, {"shuffle-shaped", 0.3, 40}} {
		rng := rand.New(rand.NewSource(1))
		b := NewBus(testOrigin)
		var app, exec string
		for i := 0; i < steadyEvents; i++ {
			if i%27 == 0 {
				app = fmt.Sprintf("j%05d-sparkpi", i/27)
				exec = app + "-v00"
			}
			e := Ev(allTypes[i%len(allTypes)])
			e.App, e.Exec, e.Task, e.Cores, e.Kind = app, exec, i%4, i%3, kinds[i%len(kinds)]
			if i%8 == 0 {
				e.Kind = strings.Clone(e.Kind)
			}
			if rng.Float64() < tc.bytesFrac {
				e.Bytes = 1 + rng.Int63n(64<<20)
			}
			b.Emit(at(time.Duration(i)*time.Millisecond), e)
		}
		size := 0
		for _, c := range b.recs.chunks {
			size += cap(c) * int(unsafe.Sizeof(record{}))
		}
		for _, c := range b.wides.chunks {
			size += cap(c) * int(unsafe.Sizeof(wide{}))
		}
		per := float64(size) / steadyEvents
		t.Logf("%s: %.2f B per event, %d wide", tc.name, per, b.wides.n)
		if per > tc.max {
			t.Errorf("%s: %.2f B per event (%d wide of %d), want at most %v", tc.name, per, b.wides.n, steadyEvents, tc.max)
		}
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

// busStreamSeed encodes n events for FuzzBusStream that cycle through
// kindPool, so the kind tables fill, with one event in four wide by its
// bytes or cores.
func busStreamSeed(buses, n int) []byte {
	data := []byte{byte(buses - 1)}
	for i := 0; i < n; i++ {
		k := 1 + i%len(kindPool)
		flags := byte(k>>8) | byte(i%2)<<1
		switch i % 8 {
		case 3:
			flags |= byte(1+i%3) << 6 // bytes
		case 5:
			flags |= 4 << 2 // cores of math.MaxInt16 + 1
		}
		data = append(data, byte(i), byte(i*7), byte(k), flags)
	}
	return data
}

// FuzzBusStream feeds a stream of events over one to three buses and
// reads it back every way a bus gives it out. After the bus count, each
// event takes four bytes: the bus and the type; the time step and the
// stage; the low byte of a kind (0 for none, else an index into
// kindPool, whose 300 kinds overflow a kind table); and flags — the
// kind's high bit, whether the kind is a fresh copy, four bits picking a
// Cores value from edgeCores and two a Bytes value. So compact and wide events interleave,
// before and after a bus's kind table fills. For each bus, Events and
// JSONL must give the emitted stream, and Merge of all the buses must
// equal the reference merge of their streams.
func FuzzBusStream(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{2, 0, 9, 1, 0x05, 1, 0, 2, 0x22, 2, 3, 0, 0x1c, 0, 1, 3, 0x40})
	f.Add(busStreamSeed(1, 600))
	f.Add(busStreamSeed(3, 1200))
	bytesOf := []int64{0, 1, 64 << 10, math.MinInt64}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%3
		buses, streams, ts := make([]*Bus, n), make([][]Event, n), make([]int64, n)
		for k := range buses {
			buses[k] = NewBus(testOrigin)
		}
		for data = data[1:]; len(data) >= 4; data = data[4:] {
			k := int(data[0]) % n
			e := Ev(allTypes[int(data[0]/3)%len(allTypes)])
			ts[k] += int64(data[1] % 4)
			e.Stage, e.Task = int(data[1]/4)-1, len(streams[k])
			if i := int(data[2]) | int(data[3]&1)<<8; i > 0 {
				e.Kind = kindPool[(i-1)%len(kindPool)]
				if data[3]&2 != 0 {
					e.Kind = strings.Clone(e.Kind)
				}
			}
			e.Cores = edgeCores[int(data[3]>>2&15)%len(edgeCores)]
			e.Bytes = bytesOf[data[3]>>6]
			e.Note = strconv.Itoa(int(data[1] % 4))
			buses[k].Emit(testOrigin.Add(time.Duration(ts[k])*time.Microsecond), e)
			e.TS = ts[k]
			streams[k] = append(streams[k], e)
		}
		for k, b := range buses {
			if got := b.Events(); !slices.Equal(got, streams[k]) {
				t.Fatalf("bus %d: Events differ from the emitted stream (%d vs %d events)", k, len(got), len(streams[k]))
			}
			var want bytes.Buffer
			if err := WriteJSONL(&want, streams[k]); err != nil {
				t.Fatal(err)
			}
			if js, err := b.JSONL(); err != nil || !bytes.Equal(js, want.Bytes()) {
				t.Fatalf("bus %d: JSONL differs from WriteJSONL over the emitted stream (err %v)", k, err)
			}
		}
		if got, want := Merge(buses...), referenceMerge(streams...); !slices.Equal(got, want) {
			t.Fatalf("Merge differs from the reference (%d vs %d events)", len(got), len(want))
		}
	})
}
