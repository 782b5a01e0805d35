package hdfs

import (
	"errors"
	"testing"
	"time"

	"splitserve/internal/netsim"
	"splitserve/internal/simclock"
	"splitserve/internal/storage"
)

type fixture struct {
	clock *simclock.Clock
	net   *netsim.Network
	fs    *Cluster
	cl    storage.Client
}

func newFixture() *fixture {
	c := simclock.New(simclock.Epoch)
	n := netsim.New(c)
	fs := NewCluster(c, n, []*netsim.Pool{n.NewPool("dn-ebs", netsim.Mbps(750))})
	client := n.NewPool("client", netsim.Mbps(2000))
	return &fixture{
		clock: c, net: n, fs: fs,
		cl: storage.Client{HostID: "exec-1", Net: []*netsim.Pool{client}},
	}
}

// write creates one file through WriteBatch.
func (f *fixture) write(path string, payload any, size int64, done func(error)) {
	f.fs.WriteBatch([]storage.Block{{ID: path, Payload: payload, Size: size}}, f.cl, done)
}

// read fetches one file through ReadMany.
func (f *fixture) read(path string, cl storage.Client, done func(storage.Block, error)) {
	f.fs.ReadMany([]string{path}, cl, func(bs []storage.Block, err error) {
		if err != nil {
			done(storage.Block{}, err)
			return
		}
		done(bs[0], nil)
	})
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := newFixture()
	var got storage.Block
	f.write("/shuffle/app/exec-1/part0", []int{1, 2, 3}, 1<<20, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
		f.read("/shuffle/app/exec-1/part0", f.cl, func(b storage.Block, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			got = b
		})
	})
	f.clock.Run()
	ints, ok := got.Payload.([]int)
	if !ok || len(ints) != 3 || got.Size != 1<<20 {
		t.Fatalf("read back %#v", got)
	}
	if f.fs.FileCount() != 1 {
		t.Fatalf("FileCount = %d, want 1", f.fs.FileCount())
	}
}

func TestWriteChargesBottleneckBandwidth(t *testing.T) {
	f := newFixture()
	var doneAt time.Time
	size := int64(netsim.Mbps(750)) * 10 // 10 seconds at EBS speed
	f.write("/f", nil, size, func(error) { doneAt = f.clock.Now() })
	f.clock.Run()
	want := simclock.Epoch.Add(10*time.Second + metaLatency)
	if doneAt != want {
		t.Fatalf("write finished at %v, want %v", doneAt.Sub(simclock.Epoch), want.Sub(simclock.Epoch))
	}
}

func TestDuplicateWriteFails(t *testing.T) {
	f := newFixture()
	var gotErr error
	f.write("/f", nil, 10, func(error) {
		batch := []storage.Block{{ID: "/g", Size: 10}, {ID: "/f", Size: 10}}
		f.fs.WriteBatch(batch, f.cl, func(err error) { gotErr = err })
	})
	f.clock.Run()
	if !errors.Is(gotErr, ErrExists) {
		t.Fatalf("err = %v, want ErrExists", gotErr)
	}
	if f.fs.FileCount() != 1 {
		t.Fatalf("failed batch left %d files, want 1", f.fs.FileCount())
	}
}

func TestReadMissingFile(t *testing.T) {
	f := newFixture()
	var gotErr error
	f.read("/nope", f.cl, func(_ storage.Block, err error) { gotErr = err })
	f.clock.Run()
	if !errors.Is(gotErr, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", gotErr)
	}
}

func TestReadManyCoalesces(t *testing.T) {
	f := newFixture()
	sz := int64(netsim.Mbps(750)) // 1 second of EBS each
	f.write("/a", nil, sz, func(error) {})
	f.write("/b", nil, sz, func(error) {})
	f.clock.Run()
	start := f.clock.Now()
	var doneAt time.Time
	f.fs.ReadMany([]string{"/a", "/b"}, f.cl, func(bs []storage.Block, err error) {
		if err != nil || len(bs) != 2 {
			t.Errorf("ReadMany: %v %d", err, len(bs))
		}
		doneAt = f.clock.Now()
	})
	f.clock.Run()
	got := doneAt.Sub(start)
	want := 2*time.Second + metaLatency
	if got != want {
		t.Fatalf("ReadMany took %v, want %v", got, want)
	}
}

func TestConcurrentReadersShareEBS(t *testing.T) {
	f := newFixture()
	sz := int64(netsim.Mbps(750)) // 1s alone
	f.write("/a", nil, sz, func(error) {})
	f.write("/b", nil, sz, func(error) {})
	f.clock.Run()
	start := f.clock.Now()
	cl2 := storage.Client{HostID: "exec-2", Net: []*netsim.Pool{f.net.NewPool("c2", netsim.Mbps(2000))}}
	var t1, t2 time.Time
	f.read("/a", f.cl, func(storage.Block, error) { t1 = f.clock.Now() })
	f.read("/b", cl2, func(storage.Block, error) { t2 = f.clock.Now() })
	f.clock.Run()
	// Both readers share the 750 Mbps EBS: each takes ~2s, not 1s.
	for _, tt := range []time.Time{t1, t2} {
		d := tt.Sub(start)
		if d < 1900*time.Millisecond || d > 2100*time.Millisecond {
			t.Fatalf("shared read took %v, want ~2s", d)
		}
	}
}
