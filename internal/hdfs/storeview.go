package hdfs

import "splitserve/internal/storage"

// StoreView adapts the filesystem to the storage.Store contract the shuffle
// layer programs against. Block IDs are used verbatim as HDFS paths (they
// already follow the paper's /shuffle/<app>/<executor>/... layout).
type StoreView struct {
	fs *Cluster
}

var _ storage.Store = (*StoreView)(nil)

// Store returns a storage.Store view of the filesystem.
func (c *Cluster) Store() *StoreView { return &StoreView{fs: c} }

// Name implements storage.Store.
func (v *StoreView) Name() string { return "hdfs" }

// Durable implements storage.Store: HDFS survives executor/host loss.
func (v *StoreView) Durable() bool { return true }

// PutAll implements storage.Store: one task's blocks become separate HDFS
// files written over a single pipelined transfer (one namenode round trip,
// aggregate bytes through the task's path and the datanode pools).
func (v *StoreView) PutAll(blocks []storage.Block, cl storage.Client, done func(error)) {
	if len(blocks) == 0 {
		v.fs.clock.After(0, func() { done(nil) })
		return
	}
	v.fs.WriteBatch(blocks, cl, done)
}

// FetchAll implements storage.Store.
func (v *StoreView) FetchAll(ids []string, cl storage.Client, done func([]storage.Block, error)) {
	v.fs.ReadMany(ids, cl, done)
}

// DropHost implements storage.Store: HDFS data does not live on executor
// hosts, so nothing is lost.
func (v *StoreView) DropHost(string) {}
