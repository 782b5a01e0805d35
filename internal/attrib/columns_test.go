package attrib

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"testing"
)

// columnBits builds the data argument of FuzzCauseColumns: one 8-byte
// little-endian word per value.
func columnBits(words ...uint64) []byte {
	b := make([]byte, 0, 8*len(words))
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// FuzzCauseColumns holds the cause columns to the maps they replaced:
// for a random key set (set, one bit per position in Causes) and random
// values (data, one 8-byte word per key in canonical order, read as an
// int64 and as a float64's bits), CauseUS and CauseUSD marshal to the
// bytes json.Marshal writes for the equivalent map[Cause]int64 and
// map[Cause]float64, fail where it fails (NaN, ±Inf), and unmarshal back
// to the same column.
func FuzzCauseColumns(f *testing.F) {
	all := uint16(1<<numCauses - 1)
	f.Add(uint16(0), []byte(nil))
	f.Add(uint16(blameCauses), []byte(nil)) // every blame key set, all zero
	f.Add(all, columnBits(1, math.MaxUint64, 1<<63, math.MaxInt64, 12345678901))
	f.Add(uint16(1<<warmHitSavedIdx|1<<tmpCacheSavedIdx), columnBits(uint64(7_900_000), 0))
	f.Add(all, columnBits(math.Float64bits(1e-7), math.Float64bits(-1e21), math.Float64bits(0.1),
		math.Float64bits(math.Copysign(0, -1)), math.Float64bits(5e-324), math.Float64bits(123456.789012),
		math.Float64bits(1.25e22), math.Float64bits(-9.99e-7), math.Float64bits(1e20)))
	f.Add(uint16(1<<3), columnBits(math.Float64bits(math.NaN())))
	f.Add(uint16(1<<5|1<<6), columnBits(0, math.Float64bits(math.Inf(1))))
	f.Add(uint16(1), columnBits(math.Float64bits(math.Inf(-1))))
	f.Fuzz(func(t *testing.T, set uint16, data []byte) {
		set &= all
		var us CauseUS
		var usd CauseUSD
		ints := map[Cause]int64{}
		floats := map[Cause]float64{}
		k := 0
		for i, c := range causeOrder {
			if set&(1<<i) == 0 {
				continue
			}
			var word [8]byte
			if 8*k < len(data) {
				copy(word[:], data[8*k:])
			}
			k++
			bits := binary.LittleEndian.Uint64(word[:])
			ints[c], floats[c] = int64(bits), math.Float64frombits(bits)
			us.put(i, ints[c])
			usd.put(i, floats[c])
		}
		for _, c := range Causes {
			if us.Get(c) != ints[c] {
				t.Fatalf("CauseUS.Get(%s) = %d, want %d", c, us.Get(c), ints[c])
			}
			if g, w := usd.Get(c), floats[c]; g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("CauseUSD.Get(%s) = %v, want %v", c, g, w)
			}
		}

		want, err := json.Marshal(ints)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(us)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("CauseUS marshals to %s, %v; the map to %s", got, err, want)
		}
		var backUS CauseUS
		if err := json.Unmarshal(got, &backUS); err != nil || backUS != us {
			t.Fatalf("CauseUS %s unmarshals to %+v, %v; want %+v", got, backUS, err, us)
		}

		want, wantErr := json.Marshal(floats)
		got, err = json.Marshal(usd)
		if wantErr != nil {
			var unsupported *json.UnsupportedValueError
			if err == nil || !errors.As(err, &unsupported) {
				t.Fatalf("CauseUSD marshals to %s, %v; the map fails with %v", got, err, wantErr)
			}
			return
		}
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("CauseUSD marshals to %s, %v; the map to %s", got, err, want)
		}
		var backUSD CauseUSD
		if err := json.Unmarshal(got, &backUSD); err != nil || backUSD.set != usd.set {
			t.Fatalf("CauseUSD %s unmarshals to %+v, %v; want %+v", got, backUSD, err, usd)
		}
		for i := range numCauses {
			if math.Float64bits(backUSD.v[i]) != math.Float64bits(usd.v[i]) {
				t.Fatalf("CauseUSD %s unmarshals to %+v; want %+v", got, backUSD, usd)
			}
		}
	})
}
