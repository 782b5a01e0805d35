package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
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

// fullRow is a job row with every field set to a non-zero value, found
// by reflection, so a field added to JobReport without a line in the
// encoder shows up as a mismatch here.
func fullRow(i int) JobReport {
	var j JobReport
	v := reflect.ValueOf(&j).Elem()
	for f := 0; f < v.NumField(); f++ {
		switch fv := v.Field(f); fv.Kind() {
		case reflect.String:
			fv.SetString(fmt.Sprintf("%s-%d", v.Type().Field(f).Name, i))
		case reflect.Int, reflect.Int64:
			fv.SetInt(int64(f+1)*1000 + int64(i))
		case reflect.Float64:
			fv.SetFloat(float64(f) + 0.25 + float64(i))
		case reflect.Bool:
			fv.SetBool(true)
		default:
			panic(fmt.Sprintf("JobReport.%s: kind %s has no case in the encoder test", v.Type().Field(f).Name, fv.Kind()))
		}
	}
	return j
}

// wantJSON is the reference encoding: MarshalIndent plus a newline.
func wantJSON(t testing.TB, r *Report) []byte {
	t.Helper()
	want, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(want, '\n')
}

func TestReportJSONMatchesMarshalIndent(t *testing.T) {
	oddStrings := fullRow(1)
	oddStrings.Name = `q"uote\back<>&amp;`
	oddStrings.Workload = "ctl\x00\x1f\n\t\x7f"
	oddStrings.Tenant = "é日本\u2028\u2029"
	oddStrings.Failed = "bad \xff\xfe utf8"
	oddStrings.Shed = ""
	floats := []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 1e21, 1e20, -1e21,
		123456789.125, 1.0 / 3, 5e-324, math.MaxFloat64, 0.1}
	floatRows := make([]JobReport, len(floats))
	for i, f := range floats {
		floatRows[i] = JobReport{ID: i, Name: "f", Stretch: f, CostUSD: f, CostVMUSD: -f,
			PredictedCostUSD: f, RunPredErr: f, CostPredErr: -f}
	}
	for name, r := range map[string]*Report{
		"nil rows":      {Policy: "fifo"},
		"empty rows":    reportWithRows(0),
		"one row":       reportWithRows(1),
		"many rows":     reportWithRows(40),
		"every field":   {Policy: "fair", JobReports: []JobReport{fullRow(0), fullRow(1)}},
		"no omitempty":  {Policy: "fair", JobReports: []JobReport{{}, {ID: -1, Name: "x", Cores: -3}}},
		"odd strings":   {Policy: "<fair>", JobReports: []JobReport{oddStrings}},
		"float formats": {Policy: "fair", MeanStretch: 1e-7, JobReports: floatRows},
	} {
		got, err := r.JSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := wantJSON(t, r); !bytes.Equal(got, want) {
			t.Errorf("%s: JSON differs from MarshalIndent:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// TestReportJSONRejectsNonFinite: NaN and ±Inf have no JSON form, in a
// row as in the header, and the report fails to render as MarshalIndent
// does.
func TestReportJSONRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, r := range []*Report{
			{JobReports: []JobReport{{Stretch: 1}, {Stretch: f}}},
			{JobReports: []JobReport{{RunPredErr: f}}},
			{MeanStretch: f, JobReports: []JobReport{{}}},
		} {
			if _, err := json.MarshalIndent(r, "", "  "); err == nil {
				t.Fatalf("MarshalIndent accepted %v", f)
			}
			if got, err := r.JSON(); err == nil {
				t.Errorf("JSON of a report holding %v: no error, got %q", f, got)
			}
		}
	}
}

// TestAppendIndentedJSONAtPrefix: at any prefix, the report appended
// after existing bytes is MarshalIndent's at that prefix, and the bytes
// before it are kept.
func TestAppendIndentedJSONAtPrefix(t *testing.T) {
	r := &Report{Policy: "fair", JobReports: []JobReport{fullRow(0), {ID: 1, Name: "x"}}}
	for _, prefix := range []string{"", "  ", "    ", "\t"} {
		want, err := json.MarshalIndent(r, prefix, "  ")
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.AppendIndentedJSON([]byte("lead:"), prefix)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append([]byte("lead:"), want...)) {
			t.Errorf("prefix %q:\n%s\nwant:\n%s", prefix, got, want)
		}
	}
}

// FuzzReportJSON is the differential check of the hand-written row
// encoder: for any value of every JobReport field, Report.JSON must write
// exactly what MarshalIndent does plus a newline, or fail where it fails.
func FuzzReportJSON(f *testing.F) {
	add := func(j JobReport) {
		f.Add(j.ID, j.Name, j.Workload, j.Tenant, j.Cores, j.ArrivalUS, j.RunUS, j.Stretch,
			j.SLOViolated, j.LambdaTasks, j.CostUSD, j.Failed, j.Shed, j.Delayed,
			j.AllocPolicy, j.AllocSource, j.PredictedRunUS, j.PredictedCostUSD, j.RunPredErr)
	}
	add(JobReport{})
	add(fullRow(3))
	add(JobReport{ID: -1, Name: `<a href="x">&`, Tenant: "\x00\u2028é", Stretch: 1e-7,
		CostUSD: 1e21, Failed: "\xff", PredictedCostUSD: math.Copysign(0, -1), RunPredErr: math.NaN()})
	add(JobReport{ID: math.MaxInt64, ArrivalUS: math.MinInt64, Stretch: 123456789.125,
		CostUSD: math.Inf(-1), AllocSource: "profile"})
	f.Fuzz(func(t *testing.T, id int, name, workload, tenant string, cores int, arrival, run int64,
		stretch float64, violated bool, lambdaTasks int, cost float64, failed, shed string,
		delayed bool, policy, source string, predRun int64, predCost, runErr float64) {
		r := &Report{Policy: "fair", JobReports: []JobReport{{
			ID: id, Name: name, Workload: workload, Tenant: tenant, Cores: cores,
			ArrivalUS: arrival, RunUS: run, Stretch: stretch, SLOViolated: violated,
			LambdaTasks: lambdaTasks, CostUSD: cost, CostVMUSD: -cost, Failed: failed, Shed: shed,
			Delayed: delayed, AllocPolicy: policy, AllocSource: source,
			PredictedRunUS: predRun, PredictedCostUSD: predCost, RunPredErr: runErr, CostPredErr: stretch,
		}, fullRow(id)}}
		got, err := r.JSON()
		want, wantErr := json.MarshalIndent(r, "", "  ")
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("JSON error %v, MarshalIndent error %v", err, wantErr)
		}
		if wantErr == nil && !bytes.Equal(got, append(want, '\n')) {
			t.Errorf("JSON differs from MarshalIndent:\n%s\nwant:\n%s", got, want)
		}
	})
}

// TestReportJSONAllocsBounded: the rows are written into one buffer grown
// from the first row's length, so rendering a report allocates as often
// for a thousand rows as for ten. The names are ASCII, as every name the
// simulator writes is: a string with a byte from 0x80 up goes through
// json.Marshal, which allocates once per string.
func TestReportJSONAllocsBounded(t *testing.T) {
	allocs := func(n int) float64 {
		r := reportWithRows(n)
		for i := range r.JobReports {
			r.JobReports[i].Name = fmt.Sprintf("j%03d-<pi>&\"pi\"", i)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := r.JSON(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(1000); many > few {
		t.Errorf("Report.JSON: %v allocs for 10 rows, %v for 1000", few, many)
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
