package shuffle

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"splitserve/internal/spark/rdd"
)

// keyKinds builds a key of each supported type from a small integer, so
// one generator drives every key type. String keys sort lexically ("10"
// before "9"), unlike their integers.
var keyKinds = []struct {
	name string
	key  func(v int) rdd.Key
}{
	{"int", func(v int) rdd.Key { return v }},
	{"int32", func(v int) rdd.Key { return int32(v) - 100 }},
	{"int64", func(v int) rdd.Key { return int64(v) * 1e12 }},
	{"uint64", func(v int) rdd.Key { return uint64(v) << 56 }},
	{"string", func(v int) rdd.Key { return strconv.Itoa(v) }},
}

// genBuckets draws maps buckets of up to rows rows each with keys below
// keys, as key(v); each row's value is its (map, row) position. Every
// fourth bucket on average is nil or empty.
func genBuckets(rng *rand.Rand, key func(int) rdd.Key, maps, rows, keys int) [][]rdd.Row {
	buckets := make([][]rdd.Row, maps)
	for m := range buckets {
		switch rng.Intn(8) {
		case 0:
			continue // nil bucket
		case 1:
			buckets[m] = []rdd.Row{}
			continue
		}
		for i := rng.Intn(rows + 1); i > 0; i-- {
			buckets[m] = append(buckets[m], rdd.KV{K: key(rng.Intn(keys)), V: [2]int{m, len(buckets[m])}})
		}
	}
	return buckets
}

// checkRegroup fails t unless Regroup and the reference agree on buckets:
// the same groups, keys and rows in the same order.
func checkRegroup(t *testing.T, name string, buckets [][]rdd.Row) {
	t.Helper()
	got, want := Regroup(buckets, kvKey), refRegroup(buckets, kvKey)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Regroup differs from the reference\n got: %v\nwant: %v", name, got, want)
	}
}

func TestRegroupMatchesReference(t *testing.T) {
	for _, kk := range keyKinds {
		rows := func(keys ...int) []rdd.Row {
			out := make([]rdd.Row, len(keys))
			for i, k := range keys {
				out[i] = rdd.KV{K: kk.key(k), V: i}
			}
			return out
		}
		fixed := map[string][][]rdd.Row{
			"no buckets":        nil,
			"nil buckets":       {nil, nil},
			"empty buckets":     {{}, {}},
			"nil and empty":     {nil, rows(3, 1), {}, rows(1, 3)},
			"one key only":      {rows(7, 7, 7), rows(7), nil, rows(7, 7)},
			"all keys distinct": {rows(5, 3, 11), rows(0, 9, 10, 2), rows(4)},
		}
		for name, buckets := range fixed {
			checkRegroup(t, kk.name+"/"+name, buckets)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 200; i++ {
			maps, perMap, keys := 1+rng.Intn(8), rng.Intn(60), 1+rng.Intn(80)
			checkRegroup(t, fmt.Sprintf("%s/random %d", kk.name, i), genBuckets(rng, kk.key, maps, perMap, keys))
		}
	}
}

// TestRegroupAppendKeepsNextGroup: the groups share one backing slice,
// so each group's Rows must end at its capacity or an append to it would
// overwrite the first row of the next group.
func TestRegroupAppendKeepsNextGroup(t *testing.T) {
	m0 := []rdd.Row{rdd.KV{K: 1, V: "a"}, rdd.KV{K: 2, V: "b"}}
	m1 := []rdd.Row{rdd.KV{K: 1, V: "c"}, rdd.KV{K: 2, V: "d"}}
	groups := Regroup([][]rdd.Row{m0, m1}, kvKey)
	next := append([]rdd.Row(nil), groups[1].Rows...)
	groups[0].Rows = append(groups[0].Rows, rdd.KV{K: 1, V: "appended"})
	if !reflect.DeepEqual(groups[1].Rows, next) {
		t.Fatalf("append to group 0 changed group 1: %v, want %v", groups[1].Rows, next)
	}
}

// FuzzRegroup holds Regroup to the reference on buckets decoded from
// data: a byte at or above 0xF0 closes the current bucket (nil when it
// has no rows), any other byte is a row with that key.
func FuzzRegroup(f *testing.F) {
	f.Add(uint8(0), []byte{3, 1, 3, 0xF0, 0xF0, 1, 2, 0xF1, 7})
	f.Add(uint8(4), []byte{9, 10, 1, 0xF0, 10, 9, 100})
	f.Add(uint8(2), []byte{5, 5, 5, 5, 0xF0, 5})
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		key := keyKinds[int(kind)%len(keyKinds)].key
		var buckets [][]rdd.Row
		var cur []rdd.Row
		for i, b := range data {
			if b >= 0xF0 {
				buckets, cur = append(buckets, cur), nil
				continue
			}
			cur = append(cur, rdd.KV{K: key(int(b)), V: i})
		}
		checkRegroup(t, "fuzz", append(buckets, cur))
	})
}

// TestRegroupAllocsBounded: with keys built ahead (keyFn allocates
// nothing), Regroup allocates per call and per distinct key, never per
// row.
func TestRegroupAllocsBounded(t *testing.T) {
	keys := make([]rdd.Key, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
	}
	allocs := func(rowsPerMap int) float64 {
		buckets := make([][]rdd.Row, 4)
		for m := range buckets {
			for i := 0; i < rowsPerMap; i++ {
				buckets[m] = append(buckets[m], rdd.KV{K: keys[(m+i)%len(keys)], V: i})
			}
		}
		return testing.AllocsPerRun(20, func() { Regroup(buckets, kvKey) })
	}
	small, large := allocs(64), allocs(4096)
	if large > small {
		t.Fatalf("Regroup allocations grow with rows: %v at 4x64 rows, %v at 4x4096", small, large)
	}
}

// BenchmarkRegroup times Regroup and the reference on two shapes: the
// shufflereuse reduce input (4 maps of 50 rows over 512 keys, nearly all
// distinct) and a PageRank-like one (8 maps of 5,000 rows over 20 keys).
func BenchmarkRegroup(b *testing.B) {
	shapes := []struct {
		name             string
		maps, rows, keys int
	}{
		{"4x50rows-512keys", 4, 50, 512},
		{"8x5000rows-20keys", 8, 5000, 20},
	}
	impls := []struct {
		name string
		fn   func([][]rdd.Row, func(rdd.Row) rdd.Key) []rdd.Group
	}{
		{"counting", Regroup},
		{"reference", refRegroup},
	}
	for _, s := range shapes {
		rng := rand.New(rand.NewSource(1))
		buckets := make([][]rdd.Row, s.maps)
		for m := range buckets {
			buckets[m] = make([]rdd.Row, s.rows)
			for i := range buckets[m] {
				buckets[m][i] = rdd.KV{K: rng.Intn(s.keys), V: 1}
			}
		}
		for _, impl := range impls {
			b.Run(s.name+"/"+impl.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					impl.fn(buckets, kvKey)
				}
			})
		}
	}
}
