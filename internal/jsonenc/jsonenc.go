// Package jsonenc holds the pieces of the simulator's hand-written JSON
// encoders (the event log's JSONL lines, the cluster report's job rows):
// appenders that write a string or a float64 exactly as encoding/json
// does, without reflection and without allocating.
package jsonenc

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
)

// AppendString appends s as a JSON string, escaped as json.Marshal
// escapes it: '"' and '\\' by backslash, the HTML-sensitive '<', '>' and
// '&' as \u00XX. A string holding a control byte or any byte from 0x80 up
// is encoded by json.Marshal itself, so the rarer escaping rules (UTF-8
// validation, U+2028/U+2029) stay the standard library's.
func AppendString(b []byte, s string) []byte {
	mark := len(b)
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch c := s[i]; c {
		case '"':
			esc = `\"`
		case '\\':
			esc = `\\`
		case '<':
			esc = `\u003c`
		case '>':
			esc = `\u003e`
		case '&':
			esc = `\u0026`
		default:
			if c < 0x20 || c >= 0x80 {
				q, _ := json.Marshal(s) // marshalling a string cannot fail
				return append(b[:mark], q...)
			}
			continue
		}
		b = append(b, s[start:i]...)
		b = append(b, esc...)
		start = i + 1
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendFloat appends f as json.Marshal writes a float64: the shortest
// decimal that round-trips, in 'f' form, or in 'e' form below 1e-6 and
// from 1e21 up, with a one-digit negative exponent unpadded ("1e-7", not
// "1e-07"). NaN and ±Inf have no JSON form: they return b unchanged and
// the *json.UnsupportedValueError json.Marshal returns for them.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{
			Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// CutNullLast checks that h, an object json.MarshalIndent wrote at the
// given prefix, ends in the field `"key": null`, and returns h up to that
// null. Appending the field's value and then CloseObject(prefix) finishes
// the object, so a report can marshal its small header by reflection and
// write its one large field, left nil in the header, by hand.
func CutNullLast(h []byte, key, prefix string) ([]byte, bool) {
	field, tail := `"`+key+`": `, "null\n"+prefix+"}"
	n := len(h) - len(tail)
	if n < len(field) || string(h[n:]) != tail || string(h[n-len(field):n]) != field {
		return h, false
	}
	return h[:n], true
}

// CloseObject appends the end of an indented object at prefix: a newline,
// the prefix and the closing brace.
func CloseObject(b []byte, prefix string) []byte {
	b = append(b, '\n')
	b = append(b, prefix...)
	return append(b, '}')
}
