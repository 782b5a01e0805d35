package hdfs

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"splitserve/internal/eventlog"
	"splitserve/internal/netsim"
	"splitserve/internal/simclock"
	"splitserve/internal/storage"
	"splitserve/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/parity.golden")

// This file pins what the shuffle layer sees of the filesystem: the
// instant each PutAll/FetchAll completes, its error, the hdfs_* events on
// the bus and the exported metrics, over a script that covers every branch
// of the data path. Two clients take part, as in a hybrid job: a VM
// executor behind its NIC and a Lambda executor behind a rate-capped
// egress link. The datanode is the master's 750 Mbps EBS pool.

// parityCluster builds the filesystem under test.
func parityCluster(c *simclock.Clock, n *netsim.Network, ebs *netsim.Pool) *Cluster {
	return NewCluster(c, n, []*netsim.Pool{ebs})
}

// parityRun plays the script and returns the golden text plus each
// step's error.
func parityRun(t *testing.T) ([]byte, map[string]error) {
	t.Helper()
	clock := simclock.New(simclock.Epoch)
	net := netsim.New(clock)
	ebs := net.NewPool("master-ebs", netsim.Mbps(750))
	fs := parityCluster(clock, net, ebs)
	bus := eventlog.NewBus(simclock.Epoch)
	fs.SetEventLog(bus, "parity")
	hub := telemetry.New(clock)
	fs.SetTelemetry(hub)
	store := fs.Store()

	vm := storage.Client{HostID: "vm-1", Net: []*netsim.Pool{net.NewPool("vm-1-nic", netsim.Mbps(1000))}}
	lambda := storage.Client{
		HostID:  "lambda-1",
		Net:     []*netsim.Pool{net.NewPool("lambda-1-egress", netsim.Mbps(600))},
		RateCap: netsim.Mbps(400),
	}

	var lines []string
	errs := make(map[string]error)
	record := func(step string, err error, bs []storage.Block) {
		errs[step] = err
		line := fmt.Sprintf("%-12v %-16s", clock.Since(simclock.Epoch), step)
		if err != nil {
			line += " err=" + err.Error()
		} else {
			line += " ok"
		}
		for _, b := range bs {
			line += fmt.Sprintf(" %s:%d:%v", b.ID, b.Size, b.Payload)
		}
		lines = append(lines, line)
	}
	put := func(at time.Duration, step string, cl storage.Client, blocks []storage.Block) {
		clock.At(simclock.Epoch.Add(at), func() {
			store.PutAll(blocks, cl, func(err error) { record(step, err, nil) })
		})
	}
	fetch := func(at time.Duration, step string, cl storage.Client, ids ...string) {
		clock.At(simclock.Epoch.Add(at), func() {
			store.FetchAll(ids, cl, func(bs []storage.Block, err error) { record(step, err, bs) })
		})
	}
	const mb = 1 << 20
	blk := func(id string, size int64) storage.Block {
		return storage.Block{ID: id, Payload: "p" + id[strings.LastIndexByte(id, '/')+1:], Size: size}
	}

	put(0, "put-3", vm, []storage.Block{
		blk("/shuffle/a/0/0", 4*mb), blk("/shuffle/a/0/1", 2*mb), blk("/shuffle/a/0/2", 6*mb),
	})
	put(0, "put-lambda", lambda, []storage.Block{
		blk("/shuffle/a/1/0", 3*mb), blk("/shuffle/a/1/1", 0),
	})
	put(2*time.Second, "put-dup", vm, []storage.Block{
		blk("/shuffle/a/2/0", mb), blk("/shuffle/a/0/1", mb),
	})
	fetch(3*time.Second, "fetch-partial", vm, "/shuffle/a/2/0")
	fetch(4*time.Second, "fetch-3", vm, "/shuffle/a/0/2", "/shuffle/a/0/0", "/shuffle/a/0/1")
	fetch(6*time.Second, "fetch-missing", lambda, "/shuffle/a/1/0", "/shuffle/a/9/9")
	put(7*time.Second, "put-empty", lambda, nil)
	// A 0-byte fetch still starts a flow, so it completes one event after
	// an empty fetch issued behind it at the same instant.
	fetch(8*time.Second, "fetch-zero", lambda, "/shuffle/a/1/1")
	fetch(8*time.Second, "fetch-empty", vm)
	fetch(9*time.Second, "share-vm", vm, "/shuffle/a/0/2")
	fetch(9*time.Second, "share-lambda", lambda, "/shuffle/a/1/0", "/shuffle/a/0/0")
	clock.Run()

	var out bytes.Buffer
	out.WriteString("# completions\n")
	for _, l := range lines {
		out.WriteString(strings.TrimRight(l, " ") + "\n")
	}
	out.WriteString("# events\n")
	if err := bus.WriteJSONL(&out); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	out.WriteString("# metrics\n")
	if err := hub.WritePrometheus(&out); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return out.Bytes(), errs
}

// TestStoreParityGolden pins the store's observable behaviour and checks
// the script's failures carry the sentinel errors callers match on.
// Regenerate with:
//
//	go test ./internal/hdfs -run TestStoreParityGolden -update
func TestStoreParityGolden(t *testing.T) {
	got, errs := parityRun(t)
	for step, want := range map[string]error{
		"put-dup":       ErrExists,
		"fetch-partial": ErrNotFound,
		"fetch-missing": ErrNotFound,
		"fetch-3":       nil,
		"fetch-empty":   nil,
		"put-empty":     nil,
		"fetch-zero":    nil,
	} {
		if err, ok := errs[step]; !ok || !errors.Is(err, want) {
			t.Errorf("%s: err = %v (completed %v), want %v", step, err, ok, want)
		}
	}
	path := filepath.Join("testdata", "parity.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("store behaviour differs from %s:\n%s", path, got)
	}
}
