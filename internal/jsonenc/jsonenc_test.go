package jsonenc

import (
	"encoding/json"
	"math"
	"testing"
)

func TestAppendFloatMatchesMarshal(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 1e-6, 9.99e-7, 1e-7,
		-1e-7, 1e-9, 1e-10, 1.5e-300, 5e-324, 1e20, 1e21, -1e21, 1.25e22, 123456789.125,
		math.MaxFloat64, math.SmallestNonzeroFloat64} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat([]byte("x"), f)
		if err != nil || string(got) != "x"+string(want) {
			t.Errorf("AppendFloat(%v) = %q, %v; want x%s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(f)
		got, err := AppendFloat([]byte("x"), f)
		if err == nil || err.Error() != want.Error() || string(got) != "x" {
			t.Errorf("AppendFloat(%v) = %q, %v; want x and %v", f, got, err, want)
		}
	}
}

func TestAppendStringMatchesMarshal(t *testing.T) {
	for _, s := range []string{"", "plain", `q"b\s`, "<a>&", "\x00\x1f\n\t\b\f\x7f", "é日本π",
		"\u2028\u2029", "bad \xff\xfe", "\xc3", "\xed\xa0\x80", "\ufffd", "s0->s1"} {
		want, _ := json.Marshal(s)
		if got := AppendString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("AppendString(%q) = %q, want x%s", s, got, want)
		}
	}
}

func TestCutNullLast(t *testing.T) {
	for _, c := range []struct {
		h, key, prefix, want string
		ok                   bool
	}{
		{"{\n  \"a\": 1,\n  \"rows\": null\n}", "rows", "", "{\n  \"a\": 1,\n  \"rows\": ", true},
		{"{\n    \"rows\": null\n  }", "rows", "  ", "{\n    \"rows\": ", true},
		{"{\n  \"rows\": null\n}", "rows", "  ", "", false},
		{"{\n  \"rowz\": null\n}", "rows", "", "", false},
		{"{\n  \"rows\": []\n}", "rows", "", "", false},
		{"}", "rows", "", "", false},
	} {
		got, ok := CutNullLast([]byte(c.h), c.key, c.prefix)
		if ok != c.ok || (ok && string(got) != c.want) {
			t.Errorf("CutNullLast(%q, %q, %q) = %q, %v; want %q, %v", c.h, c.key, c.prefix, got, ok, c.want, c.ok)
		}
	}
}
