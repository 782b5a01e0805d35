// Package hdfs implements the miniature HDFS that backs SplitServe's
// state-transfer facility: one namenode holding the file table and one
// datanode whose throughput is its host's (simulated) EBS bandwidth.
//
// That is the paper's deployment: a single HDFS node colocated with the
// Spark master on an m4.xlarge (750 Mbps dedicated EBS bandwidth), the
// bandwidth bottleneck its PageRank discussion revolves around. Every
// transfer therefore crosses the client's own pools and the datanode's.
//
// Files live until RemoveDir deletes their directory, as `hdfs dfs -rm -r`
// does. The cluster layer removes each finished application's shuffle
// directory, as Spark's ContextCleaner does when an application ends.
// Removal is not modelled: it takes no virtual time, moves no bytes and
// emits no event.
package hdfs

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"splitserve/internal/eventlog"
	"splitserve/internal/netsim"
	"splitserve/internal/simclock"
	"splitserve/internal/storage"
)

var _ storage.Store = (*Cluster)(nil)

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

	files map[string]file
	// writes numbers the writes issued so far; landing counts those whose
	// namenode round trip is still in flight. removed lists the
	// directories removed while any write was in flight, with the number
	// of the last write issued before each removal: those writes create
	// nothing under it when they land.
	writes  uint64
	landing int
	removed []removal

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

// Name implements storage.Store.
func (c *Cluster) Name() string { return "hdfs" }

// Durable implements storage.Store: HDFS survives executor/host loss.
func (c *Cluster) Durable() bool { return true }

// DropHost implements storage.Store: HDFS data does not live on executor
// hosts, so nothing is lost.
func (c *Cluster) DropHost(string) {}

// PutAll implements storage.Store: it creates one file per block (block
// IDs are used verbatim as paths; they already follow the paper's
// /shuffle/<app>/<executor>/... layout) with one namenode round trip and a
// single pipelined transfer of their total bytes — how a shuffle map task
// writes its per-reducer files (sequentially over one connection). If any
// file already exists, none is created. done is called exactly once.
func (c *Cluster) PutAll(files []storage.Block, cl storage.Client, done func(error)) {
	if len(files) == 0 {
		c.clock.After(0, func() { done(nil) })
		return
	}
	c.insts.opWrite.Inc()
	begun := c.clock.Now()
	var total int64
	for _, blk := range files {
		total += blk.Size
	}
	c.writes++
	c.landing++
	seq := c.writes
	c.clock.After(metaLatency, func() {
		if err := c.create(seq, files); err != nil {
			done(err)
			return
		}
		c.net.StartFlow(float64(total), cl.RateCap, c.pools(cl), func() {
			c.insts.bytesWritten.Add(float64(total))
			c.insts.writeSecs.ObserveDuration(c.clock.Since(begun))
			c.emitIO(eventlog.HDFSWrite, total)
			done(nil)
		})
	})
}

// create lands write seq's namenode round trip: it creates the write's
// files, none if any of them exists, and skips those under a directory
// removed after the write was issued.
func (c *Cluster) create(seq uint64, files []storage.Block) error {
	defer c.landed()
	for _, blk := range files {
		if _, ok := c.files[blk.ID]; ok {
			return fmt.Errorf("writing %s: %w", blk.ID, ErrExists)
		}
	}
	for _, blk := range files {
		if !c.removedAfter(seq, blk.ID) {
			c.files[blk.ID] = file{size: blk.Size, payload: blk.Payload}
		}
	}
	return nil
}

// landed counts one write's namenode round trip as landed. Once none is
// in flight, no write issued before a past removal is left to skip.
func (c *Cluster) landed() {
	if c.landing--; c.landing == 0 && len(c.removed) > 0 {
		clear(c.removed)
		c.removed = c.removed[:0]
	}
}

// removedAfter reports whether path lies under a directory removed after
// write seq was issued.
func (c *Cluster) removedAfter(seq uint64, path string) bool {
	for _, r := range c.removed {
		if seq <= r.last && under(path, r.dir) {
			return true
		}
	}
	return false
}

// removal is one RemoveDir call made while writes were in flight: last is
// the number of the last write issued before it.
type removal struct {
	dir  string
	last uint64
}

// under reports whether path lies in directory dir, written with or
// without its trailing slash.
func under(path, dir string) bool {
	dir = strings.TrimSuffix(dir, "/")
	return len(path) > len(dir) && path[len(dir)] == '/' && strings.HasPrefix(path, dir)
}

// RemoveDir deletes every file under dir, as `hdfs dfs -rm -r` does. It
// also covers the writes already issued whose namenode round trip has not
// landed: their files under dir are never created. Removing a directory
// that holds nothing is a no-op. Removal is not modelled: it takes no
// virtual time and emits no event.
func (c *Cluster) RemoveDir(dir string) {
	if c.landing > 0 {
		c.removed = append(c.removed, removal{dir: dir, last: c.writes})
	}
	if len(c.files) == 0 {
		return
	}
	for path := range c.files {
		if under(path, dir) {
			delete(c.files, path)
		}
	}
	if len(c.files) == 0 {
		// A Go map keeps the table of its largest size; an emptied
		// namespace starts a new one, so a busy spell's table does not
		// outlive its files.
		c.files = make(map[string]file)
	}
}

// FetchAll implements storage.Store: it reads several files with one
// namenode round trip and one coalesced flow of their summed sizes — how
// the engine's shuffle reader consumes map outputs. done is called exactly
// once.
func (c *Cluster) FetchAll(paths []string, cl storage.Client, done func([]storage.Block, error)) {
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
