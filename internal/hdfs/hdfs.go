// Package hdfs implements the miniature HDFS that backs SplitServe's
// state-transfer facility: one namenode holding the file table and one
// datanode whose throughput is its host's (simulated) EBS bandwidth.
//
// That is the paper's deployment: a single HDFS node colocated with the
// Spark master on an m4.xlarge (750 Mbps dedicated EBS bandwidth), the
// bandwidth bottleneck its PageRank discussion revolves around. Every
// transfer therefore crosses the client's own pools and the datanode's.
package hdfs

import (
	"errors"
	"fmt"
	"time"

	"splitserve/internal/eventlog"
	"splitserve/internal/netsim"
	"splitserve/internal/simclock"
	"splitserve/internal/storage"
)

// Namespace errors.
var (
	ErrNotFound = errors.New("hdfs: no such file")
	ErrExists   = errors.New("hdfs: file exists")
)

// metaLatency models one namenode RPC.
const metaLatency = 500 * time.Microsecond

type file struct {
	size    int64
	payload any
}

// Cluster is the whole filesystem: the namenode's file table plus the
// datanode's pools.
type Cluster struct {
	clock    *simclock.Clock
	net      *netsim.Network
	datanode []*netsim.Pool

	files    map[string]file
	insts    hdfsInstruments
	bus      *eventlog.Bus
	eventApp string
}

// NewCluster returns an empty filesystem whose datanode's traffic
// traverses the given pools (typically the hosting VM's EBS pool).
func NewCluster(clock *simclock.Clock, net *netsim.Network, datanode []*netsim.Pool) *Cluster {
	return &Cluster{
		clock:    clock,
		net:      net,
		datanode: datanode,
		files:    make(map[string]file),
	}
}

// SetEventLog attaches an event-log bus: every completed write and read
// emits an hdfs_write / hdfs_read event with its byte count at completion
// time on the virtual clock, tagged app.
func (c *Cluster) SetEventLog(bus *eventlog.Bus, app string) {
	c.bus = bus
	c.eventApp = app
}

func (c *Cluster) emitIO(t eventlog.Type, bytes int64) {
	if c.bus == nil {
		return
	}
	ev := eventlog.Ev(t)
	ev.App = c.eventApp
	ev.Bytes = bytes
	c.bus.Emit(c.clock.Now(), ev)
}

// pools returns the path of a transfer between cl and the datanode.
func (c *Cluster) pools(cl storage.Client) []*netsim.Pool {
	return append(append([]*netsim.Pool(nil), cl.Net...), c.datanode...)
}

// WriteBatch creates several files with one namenode round trip and a
// single pipelined transfer of their total bytes — how a shuffle map task
// writes its per-reducer files (sequentially over one connection). If any
// file already exists, none is created. done is called exactly once.
func (c *Cluster) WriteBatch(files []storage.Block, cl storage.Client, done func(error)) {
	c.insts.opWrite.Inc()
	begun := c.clock.Now()
	var total int64
	for _, blk := range files {
		total += blk.Size
	}
	c.clock.After(metaLatency, func() {
		for _, blk := range files {
			if _, ok := c.files[blk.ID]; ok {
				done(fmt.Errorf("writing %s: %w", blk.ID, ErrExists))
				return
			}
		}
		for _, blk := range files {
			c.files[blk.ID] = file{size: blk.Size, payload: blk.Payload}
		}
		c.net.StartFlow(float64(total), cl.RateCap, c.pools(cl), func() {
			c.insts.bytesWritten.Add(float64(total))
			c.insts.writeSecs.ObserveDuration(c.clock.Since(begun))
			c.emitIO(eventlog.HDFSWrite, total)
			done(nil)
		})
	})
}

// ReadMany fetches several files with one namenode round trip and one
// coalesced flow of their summed sizes — how the engine's shuffle reader
// consumes map outputs. done is called exactly once.
func (c *Cluster) ReadMany(paths []string, cl storage.Client, done func([]storage.Block, error)) {
	c.insts.opRead.Inc()
	begun := c.clock.Now()
	finish := func(out []storage.Block, total int64) {
		c.insts.bytesRead.Add(float64(total))
		c.insts.readSecs.ObserveDuration(c.clock.Since(begun))
		c.emitIO(eventlog.HDFSRead, total)
		done(out, nil)
	}
	c.clock.After(metaLatency, func() {
		out := make([]storage.Block, len(paths))
		var total int64
		for i, path := range paths {
			f, ok := c.files[path]
			if !ok {
				done(nil, fmt.Errorf("reading %s: %w", path, ErrNotFound))
				return
			}
			out[i] = storage.Block{ID: path, Payload: f.payload, Size: f.size}
			total += f.size
		}
		if len(paths) == 0 {
			finish(out, 0)
			return
		}
		c.net.StartFlow(float64(total), cl.RateCap, c.pools(cl), func() { finish(out, total) })
	})
}

// FileCount returns the number of files.
func (c *Cluster) FileCount() int { return len(c.files) }
