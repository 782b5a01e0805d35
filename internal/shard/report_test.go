package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"

	"splitserve/internal/cluster"
)

// reportWithRows builds a merged report over the given per-shard job-row
// counts (-1 = a nil cluster report, for an empty shard), with rows that
// exercise the encoder's escaping and omitempty paths.
func reportWithRows(rows ...int) *Report {
	r := &Report{Schema: SchemaV1, Shards: len(rows), Stealing: true, Seed: 7, PoolCores: 32,
		PerShard:  []ShardLine{{Shard: 0, Jobs: 3, SLOAttainment: 2.0 / 3}},
		PerTenant: []TenantLine{{Tenant: "t<0>&", Jobs: 3, CostUSD: 1e-7}},
	}
	for s, n := range rows {
		if n < 0 {
			r.ClusterReports = append(r.ClusterReports, nil)
			continue
		}
		cr := &cluster.Report{Policy: "fair", Strategy: "queue", Seed: 7, PoolCores: 8, Jobs: n,
			JobReports: make([]cluster.JobReport, n)}
		for i := range cr.JobReports {
			cr.JobReports[i] = cluster.JobReport{
				ID:        i,
				Name:      fmt.Sprintf("s%d-j%03d-<pi>&\"π\"", s, i),
				Cores:     2,
				ArrivalUS: int64(i) * 2000,
				Stretch:   1 + float64(i)/3,
			}
			if i%3 == 1 {
				cr.JobReports[i].Failed = "stalled"
			}
		}
		r.ClusterReports = append(r.ClusterReports, cr)
	}
	return r
}

// oddRows are job rows that set every optional field and carry strings
// and floats at the edges of the encoder: quotes, backslashes, HTML
// bytes, control and non-ASCII bytes, invalid UTF-8, negative zero and
// both exponent forms.
func oddRows() []cluster.JobReport {
	return []cluster.JobReport{
		{ID: 1, Name: `q"uote\back<>&`, Workload: "ctl\x00\x1f\n", Tenant: "é日本\u2028",
			Cores: 4, ArrivalUS: -5, StartUS: 1, EndUS: 2, QueueWaitUS: 3, RunUS: 4, DeadlineUS: 5,
			Stretch: 1e-7, SLOViolated: true, VMExecutors: 1, LambdaExecutors: 2, VMTasks: 3, LambdaTasks: 4,
			CostUSD: 1e21, CostVMUSD: math.Copysign(0, -1), CostLambdaUSD: 123456789.125,
			Failed: "bad \xff utf8", Shed: "deadline", Delayed: true, AllocPolicy: "min-cost",
			AllocSource: "profile", PredictedRunUS: 7, PredictedCostUSD: 0.1, RunPredErr: -0.5, CostPredErr: 1e-9},
		{ID: 2, Name: "plain"},
	}
}

func TestReportJSONMatchesMarshalIndent(t *testing.T) {
	odd := reportWithRows(-1, 0, 2)
	odd.ClusterReports[2].JobReports = oddRows()
	for name, r := range map[string]*Report{
		"no cluster reports":    {Schema: SchemaV1, Shards: 2},
		"empty cluster reports": {Schema: SchemaV1, ClusterReports: []*cluster.Report{}},
		"empty shards":          reportWithRows(-1, -1),
		"empty rows":            reportWithRows(0, -1),
		"many rows":             reportWithRows(40, -1, 1, 7),
		"odd rows":              odd,
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

// TestReportJSONRejectsNaN: a NaN in any cluster report's rows fails the
// merged report, as it fails MarshalIndent.
func TestReportJSONRejectsNaN(t *testing.T) {
	r := reportWithRows(3, -1, 3)
	r.ClusterReports[2].JobReports[1].CostUSD = math.NaN()
	if _, err := json.MarshalIndent(r, "", "  "); err == nil {
		t.Fatal("MarshalIndent accepted NaN")
	}
	if got, err := r.JSON(); err == nil {
		t.Errorf("JSON of a report holding NaN: no error, got %q", got)
	}
}

// TestReportJSONParksNoReportSizedBuffer checks that rendering a merged
// report leaves nothing report-sized alive once the call returns. One
// Marshal of the whole report would leave its scratch buffer in
// encoding/json's pool, which survives the next GC cycle; with automatic
// GC off, that cycle is the test's own.
func TestReportJSONParksNoReportSizedBuffer(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := reportWithRows(2000, -1, 2000, 1000)
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
