package tracereplay

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"splitserve/internal/cluster"
	"splitserve/internal/shard"
)

func TestParseShapes(t *testing.T) {
	tr, err := Parse(strings.NewReader(
		"tenant,arrival,runtime,cores\r\nt01,10,5,2\r\nt00,1.5,2m,4\r\n# c\nt01,1m30s,0.5,2\r\n"))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := []Row{
		{Tenant: "t00", Arrival: 1500 * time.Millisecond, Runtime: 2 * time.Minute, Cores: 4},
		{Tenant: "t01", Arrival: 10 * time.Second, Runtime: 5 * time.Second, Cores: 2},
		{Tenant: "t01", Arrival: 90 * time.Second, Runtime: 500 * time.Millisecond, Cores: 2},
	}
	if len(tr.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(tr.Rows), len(want))
	}
	for i, w := range want {
		if tr.Rows[i] != w {
			t.Errorf("row %d = %+v, want %+v", i, tr.Rows[i], w)
		}
	}
	// Header skip + out-of-order sort, each warned exactly once.
	if len(tr.Warnings) != 2 ||
		!strings.Contains(tr.Warnings[0], "header") ||
		!strings.Contains(tr.Warnings[1], "out of order") {
		t.Errorf("warnings = %q", tr.Warnings)
	}

	for _, tc := range []struct {
		csv  string
		want string
	}{
		// Two columns pick the offset shape, where "t00" is a header.
		{"t00,1\n", "empty trace"},
		{"t00,1,2,3,4\n", "line 1"},
		{",1,2,2\n", "empty tenant"},
		{"t00,-1,2,2\n", "bad arrival"},
		{"t00,1,0,2\n", "bad runtime"},
		{"t00,1,2,0\n", "bad cores"},
		{"tenant,arrival,runtime,cores\n", "empty trace"},
		{"", "empty trace"},
	} {
		if _, err := Parse(strings.NewReader(tc.csv)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q): error %v, want mention of %q", tc.csv, err, tc.want)
		}
	}
}

// TestParsePicksShape: the first data row's column count (a header row
// counts) picks the shape for the whole file.
func TestParsePicksShape(t *testing.T) {
	for _, tc := range []struct {
		csv        string
		production bool
		err        string
	}{
		{csv: "tenant,arrival,runtime,cores\nt00,1,2,2\n", production: true},
		{csv: "# trace\n30s,4,t00\n"},
		{csv: "\n# c\nt00,1,2,2\n", production: true},
		{csv: "30s\n", production: false},
		{csv: "t00,1,2,2\n5s\n", err: "line 2: 1 fields (want TENANT,ARRIVAL,RUNTIME,CORES)"},
		{csv: "5s\nt00,1,2,2\n", err: "line 2: 4 fields (want OFFSET[,CORES[,TENANT]])"},
		{csv: "offset,cores,tenant\nt00,1,2,2\n", err: "line 2: 4 fields"},
	} {
		tr, err := Parse(strings.NewReader(tc.csv))
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("Parse(%q): error %v, want %q", tc.csv, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.csv, err)
			continue
		}
		if tr.Production() != tc.production {
			t.Errorf("Parse(%q).Production() = %v, want %v", tc.csv, tr.Production(), tc.production)
		}
	}
}

// TestParseLongPreamble: the shape comes from the first data row however
// far into the file it starts. The sniffing Parse replaced read only the
// first 64 KiB, so it sent this file to the offset parser, which rejected
// its 4-column rows.
func TestParseLongPreamble(t *testing.T) {
	csv := strings.Repeat("# "+strings.Repeat("x", 1000)+"\n", 70) + "t00,1,2,2\n"
	tr, err := Parse(strings.NewReader(csv))
	if err != nil || !tr.Production() || len(tr.Rows) != 1 {
		t.Fatalf("Parse: %+v, %v", tr, err)
	}
	if legacyDetect([]byte(csv)) {
		t.Error("the old sniffing now sees past 64 KiB; TestParseLongPreamble is stale")
	}
}

// TestParseOffsetRows covers OFFSET and OFFSET,CORES rows: comments, blank
// lines, spaces around fields and out-of-order rows, and each malformed
// row rejected with its line number.
func TestParseOffsetRows(t *testing.T) {
	tr, err := Parse(strings.NewReader(
		"# arrival trace\n\n30s,4\n0s\n10s, 2 \n"))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := []Row{{Arrival: 0}, {Arrival: 10 * time.Second, Cores: 2}, {Arrival: 30 * time.Second, Cores: 4}}
	if len(tr.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(tr.Rows), len(want))
	}
	for i := range want {
		if tr.Rows[i] != want[i] {
			t.Fatalf("row %d = %+v, want %+v", i, tr.Rows[i], want[i])
		}
	}
	if tr.Production() {
		t.Error("offset rows reported as production rows")
	}
	// Offset rows carry no runtime or demand to size a replayed job from.
	if _, err := Specs(tr, 1); err == nil {
		t.Error("Specs accepted offset rows")
	}

	for _, tc := range []struct {
		csv  string
		line string
	}{
		{"5s\nbogus\n", "line 2"},
		{"5s,-1\n", "line 1"},
		{"5s,0\n", "line 1"},
		{"5s,2,t0,extra\n", "line 1"},
		{"-1s\n", "line 1"},
		{"5\n", "line 1"},           // offsets need a unit
		{"header\n-1s\n", "line 2"}, // header skip never hides a data error
		{"# only comments\n\n", "empty trace"},
		{"offset,cores,tenant\n", "empty trace"}, // header-only file
	} {
		_, err := Parse(strings.NewReader(tc.csv))
		if err == nil || !strings.Contains(err.Error(), tc.line) {
			t.Errorf("Parse(%q): error %v, want mention of %q", tc.csv, err, tc.line)
		}
	}
}

// TestParseOffsetTenantColumn covers the offset shapes the multi-tenant
// control plane ingests: a TENANT third column (with an optionally empty
// CORES field), a header row, CRLF line endings, and out-of-order arrivals
// that are sorted with a single recorded warning.
func TestParseOffsetTenantColumn(t *testing.T) {
	tr, err := Parse(strings.NewReader(
		"offset,cores,tenant\r\n10s,2,t01\r\n0s,,t00\r\n30s,4,t01\r\n5s\r\n"))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := []Row{
		{Tenant: "t00", Arrival: 0},
		{Arrival: 5 * time.Second},
		{Tenant: "t01", Arrival: 10 * time.Second, Cores: 2},
		{Tenant: "t01", Arrival: 30 * time.Second, Cores: 4},
	}
	if len(tr.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(tr.Rows), len(want))
	}
	for i := range want {
		if tr.Rows[i] != want[i] {
			t.Fatalf("row %d = %+v, want %+v", i, tr.Rows[i], want[i])
		}
	}
	// Exactly two warnings: the skipped header, and one (not per-row)
	// out-of-order notice.
	if len(tr.Warnings) != 2 {
		t.Fatalf("warnings = %q, want header-skip + out-of-order", tr.Warnings)
	}
	if !strings.Contains(tr.Warnings[0], "header") || tr.Warnings[1] != "arrivals out of order: sorted rows by offset" {
		t.Errorf("warnings = %q", tr.Warnings)
	}

	// A clean, sorted, untenanted trace carries no warnings.
	clean, err := Parse(strings.NewReader("0s\n5s,4\n"))
	if err != nil {
		t.Fatalf("Parse(clean): %v", err)
	}
	if len(clean.Warnings) != 0 || clean.Rows[0].Tenant != "" || clean.Rows[1].Tenant != "" {
		t.Errorf("clean trace: warnings=%q rows=%+v", clean.Warnings, clean.Rows)
	}
}

// TestLoad covers the file checks Load makes before parsing, for both
// shapes.
func TestLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "arrivals.csv")
	if err := os.WriteFile(path, []byte("0s\n5s,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(tr.Rows) != 2 || tr.Rows[1] != (Row{Arrival: 5 * time.Second, Cores: 4}) || tr.Production() {
		t.Fatalf("trace = %+v", tr)
	}

	for _, bad := range []string{"", filepath.Join(dir, "missing.csv"), "/nonexistent", dir, "/dev/null"} {
		if _, err := Load(bad); err == nil {
			t.Errorf("Load(%q) accepted", bad)
		}
	}
	big := filepath.Join(dir, "big.csv")
	if err := os.WriteFile(big, make([]byte, maxTraceFileBytes+1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(big); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("oversized file: got %v, want size-cap error", err)
	}

	// Malformed rows surface the path and line number to the operator.
	for _, tc := range []struct{ csv, line string }{
		{"0s\nnope\n", "line 2"},
		{Header + "\nt00,1,2,2\nt01,x,2,2\n", "line 3"},
	} {
		bad := filepath.Join(dir, "bad.csv")
		if err := os.WriteFile(bad, []byte(tc.csv), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bad); err == nil ||
			!strings.Contains(err.Error(), tc.line) || !strings.Contains(err.Error(), bad) {
			t.Errorf("malformed row in %q: got %v, want path and %s", tc.csv, err, tc.line)
		}
	}
}

// TestGenerateDeterministicAndFixtureFresh pins the generator: same
// config and seed give the same trace, and the committed fixture is
// exactly what the generator produces — regenerate it when the generator
// changes.
func TestGenerateDeterministicAndFixtureFresh(t *testing.T) {
	cfg := GenConfig{Tenants: 4, Jobs: 24, MeanGap: 2 * time.Second, MeanRuntime: time.Second, Seed: 11}
	tr1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := WriteCSV(&b1, tr1); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&b2, tr2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("same GenConfig produced different traces")
	}
	committed, err := os.ReadFile("testdata/multitenant_small.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), committed) {
		t.Errorf("committed fixture is stale: regenerate testdata/multitenant_small.csv\nwant:\n%s\ngot:\n%s",
			b1.Bytes(), committed)
	}
	// The fixture round-trips through the parser with no warnings beyond
	// the header skip.
	parsed, err := Parse(bytes.NewReader(committed))
	if err != nil {
		t.Fatalf("fixture does not parse: %v", err)
	}
	if len(parsed.Rows) != cfg.Jobs {
		t.Errorf("fixture has %d rows, want %d", len(parsed.Rows), cfg.Jobs)
	}
	if len(parsed.Warnings) != 1 || !strings.Contains(parsed.Warnings[0], "header") {
		t.Errorf("fixture warnings = %q, want only the header skip", parsed.Warnings)
	}
}

// TestSpecsMapping: rows become tenant-labelled specs with cached
// baselines per runtime bucket.
func TestSpecsMapping(t *testing.T) {
	tr := &Trace{Rows: []Row{
		{Tenant: "t00", Arrival: 0, Runtime: 600 * time.Millisecond, Cores: 2},
		{Tenant: "t01", Arrival: time.Second, Runtime: 550 * time.Millisecond, Cores: 2},
		{Tenant: "t00", Arrival: 2 * time.Second, Runtime: 2 * time.Second, Cores: 4},
	}}
	specs, err := Specs(tr, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("got %d specs, want 3", len(specs))
	}
	for i, spec := range specs {
		if spec.Tenant != tr.Rows[i].Tenant || spec.Cores != tr.Rows[i].Cores || spec.Arrival != tr.Rows[i].Arrival {
			t.Errorf("spec %d = %q/%d/%s, want %q/%d/%s", i,
				spec.Tenant, spec.Cores, spec.Arrival,
				tr.Rows[i].Tenant, tr.Rows[i].Cores, tr.Rows[i].Arrival)
		}
		if spec.Baseline <= 0 {
			t.Errorf("spec %d has no baseline", i)
		}
	}
	// Rows 0 and 1 share the 500ms bucket and demand, so their workloads
	// and baselines are identical.
	if specs[0].Baseline != specs[1].Baseline {
		t.Errorf("bucketed baselines differ: %s vs %s", specs[0].Baseline, specs[1].Baseline)
	}
	if specs[0].Workload.Name() != specs[1].Workload.Name() {
		t.Errorf("bucketed workloads differ: %s vs %s", specs[0].Workload.Name(), specs[1].Workload.Name())
	}
}

// TestReplayFixtureValidates replays the committed fixture through a
// 4-shard control plane and checks the merged report against the trace's
// empirical per-tenant distributions — the whole tentpole pipeline
// end-to-end.
func TestReplayFixtureValidates(t *testing.T) {
	tr, err := Load("testdata/multitenant_small.csv")
	if err != nil {
		t.Fatal(err)
	}
	specs, err := Specs(tr, 9)
	if err != nil {
		t.Fatal(err)
	}
	m, err := shard.New(shard.Config{Shards: 4, Cluster: cluster.Config{
		Jobs: specs, PoolCores: 16, Seed: 9,
		Strategy: cluster.StrategyQueue,
	}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != len(tr.Rows) {
		t.Fatalf("replayed %d jobs, trace has %d", rep.Jobs, len(tr.Rows))
	}
	v := Validate(tr, rep)
	if !v.OK {
		t.Errorf("validation failed:\n%s", v)
	}
	if len(v.Tenants) != 4 {
		t.Errorf("validated %d tenants, want 4", len(v.Tenants))
	}
	for _, tv := range v.Tenants {
		if tv.RuntimeRatio <= 0 {
			t.Errorf("tenant %s has no runtime ratio", tv.Tenant)
		}
	}
}
