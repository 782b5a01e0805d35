// Package s3q simulates an S3-style multi-tenant object store with the two
// properties that make it a poor shuffle medium in the paper (Section 2):
// per-request latency and per-bucket request-rate throttling ("the service
// usually tends to throttle when the aggregate throughput reaches a few
// thousands of requests per second"), while offering high aggregate byte
// throughput ("the overall I/O bandwidth is comparable to that of a local
// disk write"). Request counts feed S3 request billing.
//
// The Qubole Spark-on-Lambda baseline shuffles through this store; the
// number of objects per shuffle is mapTasks x reducePartitions, which is
// what drives its slowdown on shuffle-heavy workloads.
package s3q

import (
	"errors"
	"fmt"
	"time"

	"splitserve/internal/netsim"
	"splitserve/internal/simclock"
	"splitserve/internal/storage"
)

// ErrNoSuchKey reports a missing object.
var ErrNoSuchKey = errors.New("s3q: no such key")

// Options configure the store.
type Options struct {
	PutLatency   time.Duration
	GetLatency   time.Duration
	PutPerSec    float64 // per-bucket PUT throttle
	GetPerSec    float64 // per-bucket GET throttle
	FrontendMbps float64 // per-bucket aggregate byte throughput
	// RequestPipeline is the client's in-flight request window per batched
	// operation: a batch of n requests pays ceil(n/pipeline) request
	// latencies (Spark's shuffle writes objects near-sequentially and
	// fetches a handful at a time). 0 means fully parallel (one latency).
	RequestPipeline int
}

// DefaultOptions mirror the documented 2020 S3 limits.
func DefaultOptions() Options {
	return Options{
		PutLatency:   25 * time.Millisecond,
		GetLatency:   15 * time.Millisecond,
		PutPerSec:    3500,
		GetPerSec:    5500,
		FrontendMbps: 10000,
	}
}

// Store is the object store. Buckets are created on first use.
type Store struct {
	clock   *simclock.Clock
	net     *netsim.Network
	opts    Options
	buckets map[string]*bucket
}

type bucket struct {
	name    string
	objects map[string]storage.Block
	putGate rateGate
	getGate rateGate
	pool    *netsim.Pool
	puts    int64
	gets    int64
}

// rateGate is a fluid-approximation token bucket: the k-th request in
// excess of the sustained rate waits k/rate. This reproduces throttling-
// induced queueing without per-request events.
type rateGate struct {
	rate float64
	next time.Time
}

// reserve books n request slots starting at now and returns how long the
// caller must wait until its last slot is granted.
func (g *rateGate) reserve(now time.Time, n int) time.Duration {
	if g.next.Before(now) {
		g.next = now
	}
	g.next = g.next.Add(time.Duration(float64(n) / g.rate * float64(time.Second)))
	d := g.next.Sub(now)
	if d < 0 {
		return 0
	}
	return d
}

// New returns an empty store.
func New(clock *simclock.Clock, net *netsim.Network, opts Options) *Store {
	if opts.PutPerSec <= 0 || opts.GetPerSec <= 0 {
		def := DefaultOptions()
		if opts.PutPerSec <= 0 {
			opts.PutPerSec = def.PutPerSec
		}
		if opts.GetPerSec <= 0 {
			opts.GetPerSec = def.GetPerSec
		}
	}
	if opts.FrontendMbps <= 0 {
		opts.FrontendMbps = DefaultOptions().FrontendMbps
	}
	return &Store{clock: clock, net: net, opts: opts, buckets: make(map[string]*bucket)}
}

func (s *Store) bucket(name string) *bucket {
	b, ok := s.buckets[name]
	if !ok {
		b = &bucket{
			name:    name,
			objects: make(map[string]storage.Block),
			putGate: rateGate{rate: s.opts.PutPerSec},
			getGate: rateGate{rate: s.opts.GetPerSec},
			pool:    s.net.NewPool("s3/"+name, netsim.Mbps(s.opts.FrontendMbps)),
		}
		s.buckets[name] = b
	}
	return b
}

// PutAll stores blocks in bucketName: n request slots through the PUT
// throttle, one request latency, then one coalesced flow.
func (s *Store) PutAll(bucketName string, blocks []storage.Block, cl storage.Client, done func(error)) {
	b := s.bucket(bucketName)
	b.puts += int64(len(blocks))
	var total int64
	for _, blk := range blocks {
		total += blk.Size
	}
	wait := b.putGate.reserve(s.clock.Now(), len(blocks)) + s.latencyFor(len(blocks), s.opts.PutLatency)
	s.clock.After(wait, func() {
		pools := append(append([]*netsim.Pool(nil), cl.Net...), b.pool)
		s.net.StartFlow(float64(total), cl.RateCap, pools, func() {
			for _, blk := range blocks {
				b.objects[blk.ID] = blk
			}
			done(nil)
		})
	})
}

// FetchAll retrieves blocks from bucketName in request order.
func (s *Store) FetchAll(bucketName string, ids []string, cl storage.Client, done func([]storage.Block, error)) {
	b := s.bucket(bucketName)
	b.gets += int64(len(ids))
	wait := b.getGate.reserve(s.clock.Now(), len(ids)) + s.latencyFor(len(ids), s.opts.GetLatency)
	s.clock.After(wait, func() {
		out := make([]storage.Block, len(ids))
		var total int64
		for i, id := range ids {
			blk, ok := b.objects[id]
			if !ok {
				done(nil, fmt.Errorf("s3://%s/%s: %w", bucketName, id, ErrNoSuchKey))
				return
			}
			out[i] = blk
			total += blk.Size
		}
		pools := append(append([]*netsim.Pool(nil), cl.Net...), b.pool)
		s.net.StartFlow(float64(total), cl.RateCap, pools, func() {
			done(out, nil)
		})
	})
}

// latencyFor charges per-request latency for an n-request batch under the
// configured pipeline window.
func (s *Store) latencyFor(n int, per time.Duration) time.Duration {
	if n <= 0 {
		return per
	}
	window := s.opts.RequestPipeline
	if window <= 0 {
		return per
	}
	rounds := (n + window - 1) / window
	return time.Duration(rounds) * per
}

// Counts returns the cumulative PUT and GET request counts for billing.
func (s *Store) Counts(bucketName string) (puts, gets int64) {
	b := s.bucket(bucketName)
	return b.puts, b.gets
}

// ObjectCount returns the number of live objects in a bucket.
func (s *Store) ObjectCount(bucketName string) int {
	return len(s.bucket(bucketName).objects)
}

// BucketView adapts one bucket to the storage.Store interface so the
// shuffle layer can target S3 exactly as it targets HDFS or local disk.
type BucketView struct {
	store  *Store
	bucket string
}

var _ storage.Store = (*BucketView)(nil)

// Bucket returns a storage.Store view of one bucket.
func (s *Store) Bucket(name string) *BucketView {
	return &BucketView{store: s, bucket: name}
}

// Name implements storage.Store.
func (v *BucketView) Name() string { return "s3" }

// PutAll implements storage.Store.
func (v *BucketView) PutAll(blocks []storage.Block, cl storage.Client, done func(error)) {
	v.store.PutAll(v.bucket, blocks, cl, done)
}

// FetchAll implements storage.Store.
func (v *BucketView) FetchAll(ids []string, cl storage.Client, done func([]storage.Block, error)) {
	v.store.FetchAll(v.bucket, ids, cl, done)
}

// DropHost implements storage.Store; S3 objects survive host loss.
func (v *BucketView) DropHost(string) {}

// Durable implements storage.Store: S3 survives host loss.
func (v *BucketView) Durable() bool { return true }
