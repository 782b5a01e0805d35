package s3q

import (
	"errors"
	"testing"
	"time"

	"splitserve/internal/netsim"
	"splitserve/internal/simclock"
	"splitserve/internal/storage"
)

func setup(opts Options) (*simclock.Clock, *Store, storage.Client) {
	c := simclock.New(simclock.Epoch)
	n := netsim.New(c)
	s := New(c, n, opts)
	cl := storage.Client{HostID: "h1", Net: []*netsim.Pool{n.NewPool("client", netsim.Mbps(1000))}}
	return c, s, cl
}

func TestPutGetRoundTrip(t *testing.T) {
	c, s, cl := setup(DefaultOptions())
	var got []storage.Block
	s.PutAll("shuffle", []storage.Block{{ID: "k1", Payload: 42, Size: 100}}, cl, func(err error) {
		if err != nil {
			t.Errorf("put: %v", err)
		}
		s.FetchAll("shuffle", []string{"k1"}, cl, func(bs []storage.Block, err error) {
			if err != nil {
				t.Errorf("get: %v", err)
			}
			got = bs
		})
	})
	c.Run()
	if len(got) != 1 || got[0].Payload != 42 {
		t.Fatalf("got = %+v", got)
	}
}

func TestMissingKey(t *testing.T) {
	c, s, cl := setup(DefaultOptions())
	var gotErr error
	s.FetchAll("b", []string{"nope"}, cl, func(_ []storage.Block, err error) { gotErr = err })
	c.Run()
	if !errors.Is(gotErr, ErrNoSuchKey) {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestRequestLatencyCharged(t *testing.T) {
	opts := DefaultOptions()
	c, s, cl := setup(opts)
	var doneAt time.Time
	s.PutAll("b", []storage.Block{{ID: "k", Size: 0}}, cl, func(error) { doneAt = c.Now() })
	c.Run()
	if got := doneAt.Sub(simclock.Epoch); got < opts.PutLatency {
		t.Fatalf("put took %v, want >= %v", got, opts.PutLatency)
	}
}

func TestThrottlingQueuesBigBatches(t *testing.T) {
	opts := DefaultOptions()
	opts.PutPerSec = 100
	c, s, cl := setup(opts)
	var doneAt time.Time
	blocks := make([]storage.Block, 1000) // 10 seconds of PUT quota
	for i := range blocks {
		blocks[i] = storage.Block{ID: string(rune(i)), Size: 1}
	}
	s.PutAll("b", blocks, cl, func(error) { doneAt = c.Now() })
	c.Run()
	got := doneAt.Sub(simclock.Epoch)
	if got < 10*time.Second {
		t.Fatalf("1000 PUTs at 100/s took %v, want >= 10s", got)
	}
}

func TestThrottleSharedAcrossClients(t *testing.T) {
	opts := DefaultOptions()
	opts.GetPerSec = 100
	c, s, cl := setup(opts)
	s.PutAll("b", []storage.Block{{ID: "k", Size: 1}}, cl, func(error) {})
	c.Run()
	start := c.Now()
	// Two clients each issue 500 GETs; the shared gate admits 100/s total.
	var last time.Time
	ids := make([]string, 500)
	for i := range ids {
		ids[i] = "k"
	}
	s.FetchAll("b", ids, cl, func([]storage.Block, error) {})
	s.FetchAll("b", ids, cl, func([]storage.Block, error) { last = c.Now() })
	c.Run()
	if got := last.Sub(start); got < 9*time.Second {
		t.Fatalf("1000 shared GETs took %v, want ~10s", got)
	}
}

func TestThrottleRecoversWhenIdle(t *testing.T) {
	opts := DefaultOptions()
	opts.PutPerSec = 10
	c, s, cl := setup(opts)
	s.PutAll("b", []storage.Block{{ID: "a", Size: 1}}, cl, func(error) {})
	c.Run()
	// After a long idle gap a single put should only pay latency, not queue.
	c.After(time.Minute, func() {
		start := c.Now()
		s.PutAll("b", []storage.Block{{ID: "c", Size: 1}}, cl, func(error) {
			if got := c.Since(start); got > opts.PutLatency+200*time.Millisecond {
				t.Errorf("idle-bucket put took %v", got)
			}
		})
	})
	c.Run()
}

func TestCountsForBilling(t *testing.T) {
	c, s, cl := setup(DefaultOptions())
	s.PutAll("b", []storage.Block{{ID: "x", Size: 1}, {ID: "y", Size: 1}}, cl, func(error) {
		s.FetchAll("b", []string{"x", "y", "x"}, cl, func([]storage.Block, error) {})
	})
	c.Run()
	puts, gets := s.Counts("b")
	if puts != 2 || gets != 3 {
		t.Fatalf("counts = %d puts %d gets", puts, gets)
	}
}

func TestBucketsAreIndependent(t *testing.T) {
	opts := DefaultOptions()
	opts.PutPerSec = 1
	c, s, cl := setup(opts)
	start := c.Now()
	var t1, t2 time.Time
	mk := func(n int) []storage.Block {
		out := make([]storage.Block, n)
		for i := range out {
			out[i] = storage.Block{ID: string(rune('a' + i)), Size: 1}
		}
		return out
	}
	s.PutAll("b1", mk(5), cl, func(error) { t1 = c.Now() })
	s.PutAll("b2", mk(5), cl, func(error) { t2 = c.Now() })
	c.Run()
	// Each bucket has its own 1/s gate: both finish ~5s, not 10s.
	for _, tt := range []time.Time{t1, t2} {
		if d := tt.Sub(start); d > 7*time.Second {
			t.Fatalf("independent buckets interfered: %v", d)
		}
	}
}

func TestBucketViewImplementsStore(t *testing.T) {
	c, s, cl := setup(DefaultOptions())
	var view storage.Store = s.Bucket("shuffle")
	if view.Name() != "s3" {
		t.Fatalf("Name = %q", view.Name())
	}
	ok := false
	view.PutAll([]storage.Block{{ID: "k", Payload: "v", Size: 10}}, cl, func(err error) {
		view.FetchAll([]string{"k"}, cl, func(bs []storage.Block, err error) {
			ok = err == nil && bs[0].Payload == "v"
		})
	})
	c.Run()
	if !ok {
		t.Fatal("round trip through BucketView failed")
	}
	view.DropHost("h1") // must be a no-op
	if s.ObjectCount("shuffle") != 1 {
		t.Fatal("DropHost dropped S3 objects")
	}
}

func TestGateReserveSequence(t *testing.T) {
	g := rateGate{rate: 10}
	now := simclock.Epoch
	if d := g.reserve(now, 10); d != time.Second {
		t.Fatalf("first reserve = %v, want 1s", d)
	}
	if d := g.reserve(now, 10); d != 2*time.Second {
		t.Fatalf("second reserve = %v, want 2s", d)
	}
	// After the backlog drains, reservations start fresh.
	later := now.Add(time.Minute)
	if d := g.reserve(later, 1); d != 100*time.Millisecond {
		t.Fatalf("post-idle reserve = %v, want 100ms", d)
	}
}
