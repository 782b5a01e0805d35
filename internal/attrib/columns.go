package attrib

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"splitserve/internal/jsonenc"
)

// causeSet holds one bit per cause, by position in Causes.
type causeSet uint16

// column is a value per cause, by position in Causes, with the set of
// causes it holds a key for: a cause written as zero stays apart from one
// never written, so the column encodes to exactly the keys of the map it
// stands for. A position outside the set holds zero.
type column[T int64 | float64] struct {
	v   [numCauses]T
	set causeSet
}

// Get returns the column's value for cause: zero when the column holds
// no key for it.
func (col column[T]) Get(cause Cause) T {
	if i := causeIndex(cause); i >= 0 {
		return col.v[i]
	}
	return 0
}

// IsZero reports whether the column holds no key. The report's omitzero
// fields use it to leave an empty column out of the JSON.
func (col column[T]) IsZero() bool { return col.set == 0 }

// put sets the value at position i.
func (col *column[T]) put(i int, v T) {
	col.v[i] = v
	col.set |= 1 << i
}

// add adds d to the value at position i.
func (col *column[T]) add(i int, d T) {
	col.v[i] += d
	col.set |= 1 << i
}

// byName is the positions of Causes in sorted-name order, the order
// encoding/json writes a map's keys in.
var byName = func() [numCauses]int {
	var idx [numCauses]int
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx[:], func(a, b int) int {
		return strings.Compare(string(causeOrder[a]), string(causeOrder[b]))
	})
	return idx
}()

// appendJSON appends the column as json.Marshal writes the equivalent
// map[Cause]T: its keys in sorted-name order, each value written by
// appendV.
func (col *column[T]) appendJSON(b []byte, appendV func([]byte, T) ([]byte, error)) ([]byte, error) {
	b = append(b, '{')
	first := true
	for _, i := range byName {
		if col.set&(1<<i) == 0 {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, '"')
		b = append(b, causeOrder[i]...)
		b = append(b, '"', ':')
		var err error
		if b, err = appendV(b, col.v[i]); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// UnmarshalJSON reads a column from a JSON object keyed by cause name. A
// key outside the vocabulary is an error naming it.
func (col *column[T]) UnmarshalJSON(data []byte) error {
	var m map[string]T
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*col = column[T]{}
	var unknown []string
	for k, v := range m {
		if i := causeIndex(Cause(k)); i >= 0 {
			col.put(i, v)
		} else {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		slices.Sort(unknown)
		return fmt.Errorf("unknown cause %q", unknown[0])
	}
	return nil
}

// CauseUS is a column of microseconds per cause: a job's or a table's
// blame or savings. Get reads it; it encodes as the JSON object
// map[Cause]int64 would.
type CauseUS struct{ column[int64] }

// MarshalJSON writes the column as json.Marshal writes the equivalent
// map[Cause]int64.
func (col CauseUS) MarshalJSON() ([]byte, error) {
	return col.appendJSON(make([]byte, 0, 2+numCauses*32), appendInt)
}

func appendInt(b []byte, v int64) ([]byte, error) { return strconv.AppendInt(b, v, 10), nil }

// CauseUSD is a column of dollars per cause. Get reads it; it encodes as
// the JSON object map[Cause]float64 would, NaN and ±Inf failing as they
// fail there.
type CauseUSD struct{ column[float64] }

// MarshalJSON writes the column as json.Marshal writes the equivalent
// map[Cause]float64.
func (col CauseUSD) MarshalJSON() ([]byte, error) {
	return col.appendJSON(make([]byte, 0, 2+numCauses*40), jsonenc.AppendFloat)
}
