// Package storage defines the block-storage contract the shuffle layer
// programs against, plus the executor-local implementation that vanilla
// Spark's dynamic allocation uses ("all of the intermediate shuffle output
// is written to the local disk").
//
// Three implementations exist in this repository:
//
//   - Local (this package): blocks live on the writing host; reads from
//     other hosts traverse the source host's disk and NIC; losing a host
//     loses its blocks — which is what forces Spark's lineage rollback.
//   - HDFS (internal/hdfs + adapter in internal/spark/shuffle): the paper's
//     SplitServe state-transfer facility.
//   - S3 (internal/s3q + adapter): the Qubole Spark-on-Lambda baseline.
//
// All operations are asynchronous on the simulation clock: time is charged
// through netsim flows and per-request latencies, and payloads (real Go
// values produced by real tasks) are carried alongside their modelled
// serialized size.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"splitserve/internal/netsim"
	"splitserve/internal/simclock"
)

// ErrNotFound reports a missing block — typically because the host that
// held it died. The DAG scheduler reacts by resubmitting parent stages.
var ErrNotFound = errors.New("storage: block not found")

// Block is one stored unit: a real payload plus its modelled on-disk size.
type Block struct {
	ID      string
	Payload any
	Size    int64
}

// Client describes the I/O path of the caller: the bandwidth pools its
// traffic traverses on its own side (VM executors: host EBS and/or NIC;
// Lambda executors: their private egress pool) and an optional rate cap.
type Client struct {
	HostID string
	// Disk pools carry local-disk traffic (e.g. the host's EBS volume);
	// Net pools carry network traffic (NIC, Lambda egress).
	Disk []*netsim.Pool
	Net  []*netsim.Pool
	// RateCap bounds this client's throughput (bytes/s; 0 = unlimited).
	RateCap float64
}

// Store is the asynchronous block store contract.
type Store interface {
	// Name identifies the backend ("local", "hdfs", "s3").
	Name() string
	// PutAll writes blocks, charging one coalesced transfer, then calls
	// done. Implementations must call done exactly once.
	PutAll(blocks []Block, cl Client, done func(error))
	// FetchAll reads blocks by ID, coalescing transfers per source, then
	// calls done with blocks in request order.
	FetchAll(ids []string, cl Client, done func([]Block, error))
	// DropHost discards every block owned by hostID. External stores
	// ignore it; the local store loses data, as real executor-local
	// shuffle files are lost with the host.
	DropHost(hostID string)
	// Durable reports whether blocks survive the loss of the host that
	// wrote them (true for HDFS and S3, false for executor-local disk).
	Durable() bool
}

// Local is the executor-local disk store.
type Local struct {
	clock *simclock.Clock
	net   *netsim.Network
	// diskLatency models one seek/open per coalesced request.
	diskLatency time.Duration

	blocks map[string]localBlock
	hosts  map[string]Client // host ID -> serving-side path
}

type localBlock struct {
	block Block
	host  string
}

var _ Store = (*Local)(nil)

// NewLocal returns an empty local store.
func NewLocal(clock *simclock.Clock, net *netsim.Network) *Local {
	return &Local{
		clock:       clock,
		net:         net,
		diskLatency: time.Millisecond,
		blocks:      make(map[string]localBlock),
		hosts:       make(map[string]Client),
	}
}

// Name implements Store.
func (l *Local) Name() string { return "local" }

// Durable implements Store: local blocks die with their host.
func (l *Local) Durable() bool { return false }

// RegisterHost associates a host ID with the I/O path used when *serving*
// its blocks to remote readers.
func (l *Local) RegisterHost(hostID string, serving Client) {
	l.hosts[hostID] = serving
}

// PutAll implements Store: the write lands on the client's own host.
func (l *Local) PutAll(blocks []Block, cl Client, done func(error)) {
	total := int64(0)
	for _, b := range blocks {
		total += b.Size
	}
	l.clock.After(l.diskLatency, func() {
		l.net.StartFlow(float64(total), cl.RateCap, cl.Disk, func() {
			for _, b := range blocks {
				l.blocks[b.ID] = localBlock{block: b, host: cl.HostID}
			}
			done(nil)
		})
	})
}

// FetchAll implements Store: one coalesced flow per source host; local
// blocks (same host) traverse only the client's pools.
func (l *Local) FetchAll(ids []string, cl Client, done func([]Block, error)) {
	out := make([]Block, len(ids))
	bySource := make(map[string]int64)
	for i, id := range ids {
		lb, ok := l.blocks[id]
		if !ok {
			l.clock.After(0, func() {
				done(nil, fmt.Errorf("fetching %s: %w", id, ErrNotFound))
			})
			return
		}
		out[i] = lb.block
		bySource[lb.host] += lb.block.Size
	}
	pending := len(bySource)
	if pending == 0 {
		l.clock.After(0, func() { done(out, nil) })
		return
	}
	failed := false
	finish := func() {
		pending--
		if pending == 0 && !failed {
			done(out, nil)
		}
	}
	hosts := make([]string, 0, len(bySource))
	for host := range bySource {
		hosts = append(hosts, host)
	}
	sort.Strings(hosts)
	for _, host := range hosts {
		bytes := bySource[host]
		var pools []*netsim.Pool
		if host == cl.HostID {
			pools = append(pools, cl.Disk...)
		} else {
			pools = append(pools, cl.Net...)
			if serving, ok := l.hosts[host]; ok {
				pools = append(pools, serving.Disk...)
				pools = append(pools, serving.Net...)
			}
		}
		l.clock.After(l.diskLatency, func() {
			l.net.StartFlow(float64(bytes), cl.RateCap, pools, finish)
		})
	}
}

// DropHost implements Store: the host's blocks are gone.
func (l *Local) DropHost(hostID string) {
	for id, lb := range l.blocks {
		if lb.host == hostID {
			delete(l.blocks, id)
		}
	}
}

// Has reports whether a block is present (test/inspection helper).
func (l *Local) Has(id string) bool {
	_, ok := l.blocks[id]
	return ok
}

// Len returns the number of stored blocks.
func (l *Local) Len() int { return len(l.blocks) }
