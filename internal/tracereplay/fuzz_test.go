package tracereplay

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary CSV bytes to Parse and holds it to the two
// parsers it replaced, routed the way the CLI routed them (legacy_test.go):
// the same accept/reject, the same rows, the same warnings and the same
// error text. It also checks the contract on its own: never panic, errors
// carry a line number, and an accepted trace has sorted non-negative
// arrivals and rows of one shape.
func FuzzParse(f *testing.F) {
	for _, csv := range []string{
		// Offset rows.
		"0s\n5s\n", "30s,4\n0s\n10s,2\n", "# comment\n\n1m\n",
		"5s,0\n", "5s,-1\n", "5s,x\n", "bogus\n", "1s,2,3,4\n", "-1s\n", "",
		"0s,4,t00\n5s,2,t01\n", "30s,,t02\n", "offset,cores,tenant\n1s,2,t00\n",
		"0s,4,t00\r\n5s,2,t01\r\n", "10s,1,t01\n0s,1,t00\n",
		"offset,cores,tenant\n", "header\n-1s\n",
		// Production rows.
		"tenant,arrival,runtime,cores\r\nt01,10,5,2\r\nt00,1.5,2m,4\r\n# c\nt01,1m30s,0.5,2\r\n",
		"t00,1\n", "t00,1,2,3,4\n", ",1,2,2\n", "t00,-1,2,2\n", "t00,1,0,2\n", "t00,1,2,0\n",
		"tenant,arrival,runtime,cores\n",
		// A later row of the other shape; a header after the first row.
		"t00,1,2,2\n5s\n", "5s\nt00,1,2,2\n",
		"5s\nbogus\n", "t00,1,2,2\ntenant,arrival,runtime,cores\n",
	} {
		f.Add([]byte(csv))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Parse(bytes.NewReader(data))
		if err != nil {
			if tr != nil {
				t.Errorf("Parse returned both a trace and error %v", err)
			}
			if !strings.Contains(err.Error(), "line ") && err.Error() != "empty trace" {
				t.Errorf("error without a line number: %v", err)
			}
		} else {
			checkTrace(t, tr)
		}

		// The old sniffing looked at the first 64 KiB only; past it the
		// two may route differently (see TestParseLongPreamble).
		if len(data) > 64<<10 {
			return
		}
		want, werr := legacyParse(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("Parse error %v, legacy error %v", err, werr)
		}
		if err != nil {
			if err.Error() != werr.Error() {
				t.Errorf("Parse error %q, legacy %q", err, werr)
			}
			return
		}
		if !reflect.DeepEqual(tr.Rows, want.Rows) {
			t.Errorf("rows differ:\n got %+v\nwant %+v", tr.Rows, want.Rows)
		}
		if !reflect.DeepEqual(tr.Warnings, want.Warnings) {
			t.Errorf("warnings %q, legacy %q", tr.Warnings, want.Warnings)
		}
	})
}

// checkTrace checks an accepted trace: rows sorted by arrival, no
// negative arrival, and either all production rows (tenant, runtime and
// cores set) or all offset rows (no runtime, cores zero or positive).
func checkTrace(t *testing.T, tr *Trace) {
	t.Helper()
	if len(tr.Rows) == 0 {
		t.Fatal("accepted trace has no rows")
	}
	if !sort.SliceIsSorted(tr.Rows, func(i, j int) bool { return tr.Rows[i].Arrival < tr.Rows[j].Arrival }) {
		t.Errorf("arrivals not ascending: %+v", tr.Rows)
	}
	production := tr.Production()
	for _, row := range tr.Rows {
		if row.Arrival < 0 {
			t.Errorf("negative arrival %v", row.Arrival)
		}
		if production && (row.Tenant == "" || row.Runtime <= 0 || row.Cores < 1) {
			t.Errorf("malformed production row %+v", row)
		}
		if !production && (row.Runtime != 0 || row.Cores < 0) {
			t.Errorf("malformed offset row %+v", row)
		}
	}
}
