package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// offsetsGolden is one pinned tracefile invocation: its -report json
// output, the digest of its -eventlog file and what it wrote to stderr
// (the parser's warnings, each printed once).
type offsetsGolden struct {
	Args           []string        `json:"args"`
	Report         json.RawMessage `json:"report"`
	Events         int             `json:"events"`
	EventlogSHA256 string          `json:"eventlog_sha256"`
	Stderr         []string        `json:"stderr"`
}

// TestCLIOffsetTraceGolden pins -arrival tracefile:PATH runs on
// OFFSET[,CORES[,TENANT]] files byte for byte: a tenanted 3-column file
// with a header row, CRLF endings, empty CORES fields, a comment and
// out-of-order rows, replayed through the shard manager; and a 2-column
// untenanted file, run on the direct scheduler path. Regenerate with:
//
//	go test ./cmd/splitserve-cluster -run TestCLIOffsetTraceGolden -update
func TestCLIOffsetTraceGolden(t *testing.T) {
	invocations := [][]string{
		{"-arrival", "tracefile:testdata/offsets_tenanted.csv", "-mix", "sparkpi", "-pool", "8", "-cores", "2", "-shards", "2"},
		{"-arrival", "tracefile:testdata/offsets_plain.csv", "-mix", "sparkpi,kmeans", "-pool", "8", "-cores", "4"},
	}
	var got []offsetsGolden
	for _, args := range invocations {
		log := filepath.Join(t.TempDir(), "events.jsonl")
		report, stderr := runCLIStreams(t, append(append([]string(nil), args...), "-report", "json", "-eventlog", log)...)
		events, err := os.ReadFile(log)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(events)
		lines := []string{}
		if s := strings.TrimSuffix(string(stderr), "\n"); s != "" {
			lines = strings.Split(s, "\n")
		}
		got = append(got, offsetsGolden{
			Args:           args,
			Report:         report,
			Events:         bytes.Count(events, []byte{'\n'}),
			EventlogSHA256: hex.EncodeToString(sum[:]),
			Stderr:         lines,
		})
	}

	path := filepath.Join("testdata", "cli_offsets.golden.json")
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	var want []offsetsGolden
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d invocations, test runs %d", len(want), len(got))
	}
	for i, g := range got {
		w := want[i]
		name := strings.Join(g.Args, " ")
		var gr, wr bytes.Buffer
		if err := json.Compact(&gr, g.Report); err != nil {
			t.Fatalf("%s: report is not JSON: %v", name, err)
		}
		if err := json.Compact(&wr, w.Report); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gr.Bytes(), wr.Bytes()) {
			t.Errorf("%s: -report json differs from golden", name)
		}
		if g.Events != w.Events || g.EventlogSHA256 != w.EventlogSHA256 {
			t.Errorf("%s: event log %d events %s, golden %d events %s",
				name, g.Events, g.EventlogSHA256, w.Events, w.EventlogSHA256)
		}
		if strings.Join(g.Stderr, "\n") != strings.Join(w.Stderr, "\n") {
			t.Errorf("%s: stderr %q, golden %q", name, g.Stderr, w.Stderr)
		}
	}
}
