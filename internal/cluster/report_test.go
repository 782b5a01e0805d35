package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"
)

// reportWithRows builds a report whose job rows exercise the encoder's
// escaping and omitempty paths.
func reportWithRows(n int) *Report {
	r := &Report{Policy: "fair", Strategy: "bridge", Seed: 7, PoolCores: 16, Jobs: n}
	r.JobReports = make([]JobReport, n)
	for i := range r.JobReports {
		r.JobReports[i] = JobReport{
			ID:        i,
			Name:      fmt.Sprintf("j%03d-<pi>&\"π\"", i),
			Cores:     2,
			ArrivalUS: int64(i) * 2000,
			Stretch:   1 + float64(i)/3,
		}
		if i%3 == 1 {
			r.JobReports[i].Failed = "stalled"
			r.JobReports[i].PredictedCostUSD = 1e-7
		}
	}
	return r
}

func TestReportJSONMatchesMarshalIndent(t *testing.T) {
	empty := reportWithRows(0)
	for name, r := range map[string]*Report{
		"nil rows":   {Policy: "fifo"},
		"empty rows": empty,
		"one row":    reportWithRows(1),
		"many rows":  reportWithRows(40),
	} {
		want, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		got, err := r.JSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: JSON differs from MarshalIndent:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// TestReportJSONParksNoReportSizedBuffer checks that rendering a report
// leaves nothing report-sized alive once the call returns. One Marshal of
// the whole report would leave its scratch buffer in encoding/json's pool,
// which survives the next GC cycle; with automatic GC off, that cycle is
// the test's own.
func TestReportJSONParksNoReportSizedBuffer(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := reportWithRows(5000)
	live := func() int64 {
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		return int64(s[0].Value.Uint64())
	}
	before := live()
	size := func() int {
		out, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return len(out)
	}()
	if grew := live() - before; grew > int64(size)/8 {
		t.Fatalf("live heap grew %d bytes rendering a %d-byte report", grew, size)
	}
	runtime.KeepAlive(r)
}
