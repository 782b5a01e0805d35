package storage

import (
	"errors"
	"testing"
	"time"

	"splitserve/internal/netsim"
	"splitserve/internal/simclock"
)

func setup() (*simclock.Clock, *netsim.Network, *Local) {
	c := simclock.New(simclock.Epoch)
	n := netsim.New(c)
	return c, n, NewLocal(c, n)
}

func TestPutFetchRoundTrip(t *testing.T) {
	c, n, s := setup()
	disk := n.NewPool("disk", 1000)
	cl := Client{HostID: "h1", Disk: []*netsim.Pool{disk}}
	var fetched []Block
	s.PutAll([]Block{{ID: "b1", Payload: "hello", Size: 500}}, cl, func(err error) {
		if err != nil {
			t.Errorf("put: %v", err)
		}
		s.FetchAll([]string{"b1"}, cl, func(bs []Block, err error) {
			if err != nil {
				t.Errorf("fetch: %v", err)
			}
			fetched = bs
		})
	})
	c.Run()
	if len(fetched) != 1 || fetched[0].Payload != "hello" {
		t.Fatalf("fetched = %+v", fetched)
	}
	// Put: 1ms + 500B at 1000B/s = ~0.501s; fetch same again.
	elapsed := c.Since(simclock.Epoch)
	want := 2*(time.Millisecond) + 2*(500*time.Millisecond)
	if elapsed != want {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}
}

func TestFetchMissingBlock(t *testing.T) {
	c, n, s := setup()
	disk := n.NewPool("disk", 1000)
	cl := Client{HostID: "h1", Disk: []*netsim.Pool{disk}}
	var gotErr error
	s.FetchAll([]string{"nope"}, cl, func(_ []Block, err error) { gotErr = err })
	c.Run()
	if !errors.Is(gotErr, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", gotErr)
	}
}

func TestRemoteFetchTraversesSourcePools(t *testing.T) {
	c, n, s := setup()
	disk1 := n.NewPool("h1-disk", 100)
	disk2 := n.NewPool("h2-disk", 1e9)
	s.RegisterHost("h1", Client{HostID: "h1", Disk: []*netsim.Pool{disk1}})
	writer := Client{HostID: "h1", Disk: []*netsim.Pool{disk1}}
	reader := Client{HostID: "h2", Net: []*netsim.Pool{disk2}}
	var doneAt time.Time
	s.PutAll([]Block{{ID: "b", Size: 1000}}, writer, func(error) {
		s.FetchAll([]string{"b"}, reader, func(_ []Block, err error) {
			if err != nil {
				t.Errorf("fetch: %v", err)
			}
			doneAt = c.Now()
		})
	})
	c.Run()
	// Write: 1ms + 10s. Read bottlenecked by h1's 100 B/s disk: 1ms + 10s.
	want := simclock.Epoch.Add(2*time.Millisecond + 20*time.Second)
	if !doneAt.Equal(want) {
		t.Fatalf("done at %v, want %v", doneAt, want)
	}
}

func TestLocalFetchSkipsSourceRegistration(t *testing.T) {
	c, n, s := setup()
	disk := n.NewPool("disk", 1000)
	cl := Client{HostID: "h1", Disk: []*netsim.Pool{disk}}
	ok := false
	s.PutAll([]Block{{ID: "b", Size: 100}}, cl, func(error) {
		s.FetchAll([]string{"b"}, cl, func(_ []Block, err error) { ok = err == nil })
	})
	c.Run()
	if !ok {
		t.Fatal("same-host fetch failed")
	}
}

func TestDropHostLosesBlocks(t *testing.T) {
	c, n, s := setup()
	disk := n.NewPool("disk", 1e6)
	cl := Client{HostID: "h1", Disk: []*netsim.Pool{disk}}
	s.PutAll([]Block{{ID: "b1", Size: 10}, {ID: "b2", Size: 10}}, cl, func(error) {})
	c.Run()
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.DropHost("h1")
	if s.Len() != 0 {
		t.Fatalf("blocks survived DropHost: %d", s.Len())
	}
	var gotErr error
	s.FetchAll([]string{"b1"}, cl, func(_ []Block, err error) { gotErr = err })
	c.Run()
	if !errors.Is(gotErr, ErrNotFound) {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestDropHostSparesOtherHosts(t *testing.T) {
	c, n, s := setup()
	disk := n.NewPool("disk", 1e6)
	s.PutAll([]Block{{ID: "b1", Size: 10}}, Client{HostID: "h1", Disk: []*netsim.Pool{disk}}, func(error) {})
	s.PutAll([]Block{{ID: "b2", Size: 10}}, Client{HostID: "h2", Disk: []*netsim.Pool{disk}}, func(error) {})
	c.Run()
	s.DropHost("h1")
	if !s.Has("b2") || s.Has("b1") {
		t.Fatal("DropHost dropped the wrong blocks")
	}
}

func TestFetchCoalescesPerSource(t *testing.T) {
	c, n, s := setup()
	disk := n.NewPool("disk", 100)
	cl := Client{HostID: "h1", Disk: []*netsim.Pool{disk}}
	blocks := []Block{
		{ID: "a", Size: 100}, {ID: "b", Size: 100}, {ID: "c", Size: 100},
	}
	var doneAt time.Time
	s.PutAll(blocks, cl, func(error) {
		s.FetchAll([]string{"a", "b", "c"}, cl, func(bs []Block, err error) {
			if err != nil || len(bs) != 3 {
				t.Errorf("fetch: %v %d", err, len(bs))
			}
			doneAt = c.Now()
		})
	})
	c.Run()
	// One coalesced 300B flow each way at 100 B/s: 2x(1ms+3s). If fetches
	// were per-block sequential we would see extra latency.
	want := simclock.Epoch.Add(2*time.Millisecond + 6*time.Second)
	if !doneAt.Equal(want) {
		t.Fatalf("done at %v, want %v", doneAt, want)
	}
}

func TestFetchOrderMatchesRequest(t *testing.T) {
	c, n, s := setup()
	disk := n.NewPool("disk", 1e6)
	cl := Client{HostID: "h1", Disk: []*netsim.Pool{disk}}
	s.PutAll([]Block{
		{ID: "x", Payload: 1, Size: 1},
		{ID: "y", Payload: 2, Size: 1},
	}, cl, func(error) {})
	c.Run()
	var got []Block
	s.FetchAll([]string{"y", "x"}, cl, func(bs []Block, _ error) { got = bs })
	c.Run()
	if got[0].Payload != 2 || got[1].Payload != 1 {
		t.Fatalf("order wrong: %+v", got)
	}
}
