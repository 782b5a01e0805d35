package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI runs the command in-process with args and returns what it wrote
// to stdout. It fails the test on a non-zero exit code.
func runCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	stdout, _ := runCLIStreams(t, args...)
	return stdout
}

// runCLIStreams runs the command in-process with args and returns what it
// wrote to stdout and to stderr. It fails the test on a non-zero exit code.
func runCLIStreams(t *testing.T, args ...string) (stdout, stderr []byte) {
	t.Helper()
	savedFlags, savedArgs, savedOut, savedErr := flag.CommandLine, os.Args, os.Stdout, os.Stderr
	defer func() { flag.CommandLine, os.Args, os.Stdout, os.Stderr = savedFlags, savedArgs, savedOut, savedErr }()
	flag.CommandLine = flag.NewFlagSet("splitserve-cluster", flag.ContinueOnError)
	os.Args = append([]string{"splitserve-cluster"}, args...)
	dir := t.TempDir()
	out, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	errOut, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout, os.Stderr = out, errOut
	code := run()
	out.Close()
	errOut.Close()
	os.Stderr = savedErr
	if code != 0 {
		msg, _ := os.ReadFile(errOut.Name())
		t.Fatalf("splitserve-cluster %s: exit %d\n%s", strings.Join(args, " "), code, msg)
	}
	if stdout, err = os.ReadFile(out.Name()); err != nil {
		t.Fatal(err)
	}
	if stderr, err = os.ReadFile(errOut.Name()); err != nil {
		t.Fatal(err)
	}
	return stdout, stderr
}

// cliGolden is one pinned invocation: its -report json output and the
// digest of its -eventlog file.
type cliGolden struct {
	Args           []string        `json:"args"`
	Report         json.RawMessage `json:"report"`
	Events         int             `json:"events"`
	EventlogSHA256 string          `json:"eventlog_sha256"`
}

// TestCLIGolden pins two end-to-end invocations byte for byte: a
// cost-manager-sized (-cores auto) run on the direct scheduler path and a
// -tenants run on the sharded path. Regenerate with:
//
//	go test ./cmd/splitserve-cluster -run TestCLIGolden -update
func TestCLIGolden(t *testing.T) {
	profiles := filepath.Join("..", "..", "internal", "experiments", "testdata", "profiles.json")
	invocations := [][]string{
		{"-jobs", "4", "-mix", "sparkpi,kmeans", "-pool", "8", "-cores", "auto", "-profiles", profiles},
		{"-jobs", "6", "-mix", "sparkpi", "-pool", "8", "-tenants", "3"},
	}
	var got []cliGolden
	for _, args := range invocations {
		log := filepath.Join(t.TempDir(), "events.jsonl")
		report := runCLI(t, append(append([]string(nil), args...), "-report", "json", "-eventlog", log)...)
		events, err := os.ReadFile(log)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(events)
		got = append(got, cliGolden{
			Args:           args,
			Report:         report,
			Events:         bytes.Count(events, []byte{'\n'}),
			EventlogSHA256: hex.EncodeToString(sum[:]),
		})
	}

	path := filepath.Join("testdata", "cli.golden.json")
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
	var want []cliGolden
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
	}
}
