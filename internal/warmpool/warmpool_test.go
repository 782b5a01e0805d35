package warmpool

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"splitserve/internal/eventlog"
	"splitserve/internal/simclock"
	"splitserve/internal/storage"
)

func TestAccountingTakePut(t *testing.T) {
	a := NewAccounting(2)
	if !a.TryTake(1536) || !a.TryTake(1536) {
		t.Fatalf("expected two warm takes from seed 2")
	}
	if a.TryTake(1536) {
		t.Fatalf("third take should be cold")
	}
	if got := a.Available(1536); got != 0 {
		t.Fatalf("Available = %d, want 0", got)
	}
	a.Put(1536)
	if !a.TryTake(1536) {
		t.Fatalf("take after put should be warm")
	}
	// Distinct memory sizes are independent.
	if !a.TryTake(3008) {
		t.Fatalf("fresh size should seed warm")
	}
}

// TestAccountingNeverNegative is the property half of satellite 3: no
// randomized take/put schedule can drive a warm count below zero.
func TestAccountingNeverNegative(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := NewAccounting(rng.Intn(4))
		sizes := []int{1024, 1536, 3008}
		for op := 0; op < 2000; op++ {
			mem := sizes[rng.Intn(len(sizes))]
			if rng.Intn(3) == 0 {
				a.Put(mem)
			} else {
				a.TryTake(mem)
			}
			for sz, n := range a.Snapshot() {
				if n < 0 {
					t.Fatalf("seed %d op %d: %d MB count went negative (%d)", seed, op, sz, n)
				}
			}
		}
	}
}

func newTestPool(t *testing.T, target int) (*simclock.Clock, *eventlog.Bus, *Pool) {
	t.Helper()
	clock := simclock.New(simclock.Epoch)
	bus := eventlog.NewBus(simclock.Epoch)
	p, err := NewPool(clock, bus, Config{MemoryMB: 1536, Target: target})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	return clock, bus, p
}

func TestPoolAcquireRelease(t *testing.T) {
	_, bus, p := newTestPool(t, 2)
	if p.Idle() != 2 || p.InUse() != 0 {
		t.Fatalf("fresh pool: idle=%d busy=%d, want 2/0", p.Idle(), p.InUse())
	}
	a := p.Acquire()
	b := p.Acquire()
	if a == nil || b == nil {
		t.Fatalf("expected two warm acquisitions")
	}
	if c := p.Acquire(); c != nil {
		t.Fatalf("third acquire should miss, got %s", c.ID)
	}
	if p.WarmHits() != 2 || p.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", p.WarmHits(), p.Misses())
	}
	p.Release(a)
	// LIFO: the most recently released env comes back first (warmest /tmp).
	if got := p.Acquire(); got != a {
		t.Fatalf("expected LIFO reuse of %s, got %v", a.ID, got)
	}
	var hits, resizes int
	for _, e := range bus.Events() {
		switch e.Type {
		case eventlog.LambdaWarmHit:
			hits++
		case eventlog.WarmpoolResize:
			resizes++
		}
	}
	if hits != 3 {
		t.Fatalf("lambda_warm_hit events = %d, want 3", hits)
	}
	if resizes != 1 {
		t.Fatalf("warmpool_resize events = %d, want 1 (initial provisioning)", resizes)
	}
}

func TestPoolLifetimeRecyclesIdleEnv(t *testing.T) {
	clock := simclock.New(simclock.Epoch)
	// Min pins the target so target-tracking decay doesn't shrink the
	// pool before the lifetime fires.
	p, err := NewPool(clock, nil, Config{MemoryMB: 1536, Target: 2, Min: 2})
	if err != nil {
		t.Fatal(err)
	}
	var expired []string
	p.SetOnExpire(func(id string) { expired = append(expired, id) })
	first := p.Acquire()
	p.Release(first)
	clock.RunFor(16 * time.Minute)
	if len(expired) < 2 {
		t.Fatalf("expected both seed envs recycled at 15 min, got %v", expired)
	}
	// The pool replaced them: still at target, and handing out fresh IDs.
	if p.Idle() != 2 {
		t.Fatalf("idle after recycle = %d, want 2", p.Idle())
	}
	env := p.Acquire()
	if env == nil || env == first {
		t.Fatalf("expected a fresh replacement env, got %v", env)
	}
}

func TestPoolBusyEnvDoomedNotKilled(t *testing.T) {
	clock := simclock.New(simclock.Epoch)
	// Max pins the pool at one env so target tracking can't grow it.
	p, err := NewPool(clock, nil, Config{MemoryMB: 1536, Target: 1, Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	env := p.Acquire()
	if env == nil {
		t.Fatal("acquire failed")
	}
	clock.RunFor(20 * time.Minute)
	if env.dead {
		t.Fatalf("busy env must not die mid-invocation")
	}
	if !env.doomed {
		t.Fatalf("busy env past lifetime should be doomed")
	}
	p.Release(env)
	if !env.dead {
		t.Fatalf("doomed env should retire on release")
	}
	if p.Idle() != 1 {
		t.Fatalf("pool should replace the retired env, idle=%d", p.Idle())
	}
}

func TestPoolTargetTracking(t *testing.T) {
	clock, bus, p := newTestPool(t, 1)
	// Hold 3 concurrent envs across a resize interval: only 1 provisioned,
	// so 2 misses, then the tick should raise the target toward
	// ceil(peak/0.7).
	env := p.Acquire()
	if env == nil {
		t.Fatal("first acquire should hit")
	}
	p.Acquire()
	p.Acquire()
	clock.RunFor(2 * time.Minute)
	if p.Target() < 2 {
		t.Fatalf("target after burst = %d, want >= 2", p.Target())
	}
	// With the burst over (env released), targets decay back to Min.
	p.Release(env)
	clock.RunFor(10 * time.Minute)
	if p.Target() != 1 {
		t.Fatalf("target after quiet period = %d, want Min=1", p.Target())
	}
	var resizes int
	for _, e := range bus.Events() {
		if e.Type == eventlog.WarmpoolResize {
			resizes++
		}
	}
	if resizes < 3 { // provision, grow, shrink
		t.Fatalf("warmpool_resize events = %d, want >= 3", resizes)
	}
}

func TestPoolIdleBreakdown(t *testing.T) {
	clock, _, p := newTestPool(t, 2)
	env := p.Acquire()
	clock.RunFor(30 * time.Second)
	p.Release(env)
	clock.RunFor(30 * time.Second)
	total := p.IdleTotal(clock.Now())
	// env idle 30s after release; the untouched env idle 60s.
	want := 90 * time.Second
	if total != want {
		t.Fatalf("IdleTotal = %v, want %v", total, want)
	}
	for _, e := range p.IdleBreakdown(clock.Now()) {
		if e.Idle < 0 {
			t.Fatalf("negative idle for %s", e.ID)
		}
	}
}

// TestPoolRandomScheduleInvariants is the pool half of satellite 3's
// property test: under randomized acquire/release/advance schedules the
// accounting never goes negative and the live environment count never
// exceeds the configured Max.
func TestPoolRandomScheduleInvariants(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		clock := simclock.New(simclock.Epoch)
		p, err := NewPool(clock, nil, Config{MemoryMB: 1536, Target: 3})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		var held []*Env
		for op := 0; op < 500; op++ {
			switch rng.Intn(3) {
			case 0:
				if env := p.Acquire(); env != nil {
					held = append(held, env)
				}
			case 1:
				if len(held) > 0 {
					i := rng.Intn(len(held))
					p.Release(held[i])
					held = append(held[:i], held[i+1:]...)
				}
			case 2:
				clock.RunFor(time.Duration(rng.Intn(120)) * time.Second)
			}
			if p.InUse() < 0 || p.Idle() < 0 {
				t.Fatalf("seed %d op %d: negative accounting busy=%d idle=%d", seed, op, p.InUse(), p.Idle())
			}
			if p.InUse() != len(held) {
				t.Fatalf("seed %d op %d: busy=%d but holding %d", seed, op, p.InUse(), len(held))
			}
			if live := p.InUse() + p.Idle(); live > p.Config().Max {
				t.Fatalf("seed %d op %d: live=%d exceeds Max=%d", seed, op, live, p.Config().Max)
			}
		}
	}
}

// fakeStore is a deterministic in-memory backing store with visible
// latencies, so tests can distinguish a /tmp hit (1 ms) from a backing
// fetch (50 ms).
type fakeStore struct {
	clock      *simclock.Clock
	blocks     map[string]storage.Block
	fetchCalls int
	fetchedIDs []string
}

func newFakeStore(clock *simclock.Clock) *fakeStore {
	return &fakeStore{clock: clock, blocks: make(map[string]storage.Block)}
}

func (f *fakeStore) Name() string  { return "fake" }
func (f *fakeStore) Durable() bool { return true }

func (f *fakeStore) PutAll(blocks []storage.Block, cl storage.Client, done func(error)) {
	f.clock.After(10*time.Millisecond, func() {
		for _, b := range blocks {
			f.blocks[b.ID] = b
		}
		done(nil)
	})
}

func (f *fakeStore) FetchAll(ids []string, cl storage.Client, done func([]storage.Block, error)) {
	f.fetchCalls++
	f.fetchedIDs = append(f.fetchedIDs, ids...)
	out := make([]storage.Block, len(ids))
	for i, id := range ids {
		b, ok := f.blocks[id]
		if !ok {
			f.clock.After(0, func() { done(nil, storage.ErrNotFound) })
			return
		}
		out[i] = b
	}
	f.clock.After(50*time.Millisecond, func() { done(out, nil) })
}

func (f *fakeStore) DropHost(string) {}

func blk(id string, size int64) storage.Block {
	return storage.Block{ID: id, Payload: id, Size: size}
}

func newTestCache(t *testing.T) (*simclock.Clock, *fakeStore, *TmpCache, *eventlog.Bus) {
	t.Helper()
	clock := simclock.New(simclock.Epoch)
	bus := eventlog.NewBus(simclock.Epoch)
	backing := newFakeStore(clock)
	tc := NewTmpCache(clock, bus, backing, CacheOptions{})
	return clock, backing, tc, bus
}

func putAll(t *testing.T, clock *simclock.Clock, s storage.Store, cl storage.Client, blocks ...storage.Block) {
	t.Helper()
	ok := false
	s.PutAll(blocks, cl, func(err error) {
		if err != nil {
			t.Fatalf("PutAll: %v", err)
		}
		ok = true
	})
	clock.RunWhile(func() bool { return !ok })
	if !ok {
		t.Fatal("PutAll never completed")
	}
}

func fetchAll(t *testing.T, clock *simclock.Clock, s storage.Store, cl storage.Client, ids ...string) ([]storage.Block, time.Duration) {
	t.Helper()
	start := clock.Now()
	var got []storage.Block
	ok := false
	s.FetchAll(ids, cl, func(blocks []storage.Block, err error) {
		if err != nil {
			t.Fatalf("FetchAll: %v", err)
		}
		got = blocks
		ok = true
	})
	clock.RunWhile(func() bool { return !ok })
	if !ok {
		t.Fatal("FetchAll never completed")
	}
	return got, clock.Now().Sub(start)
}

func TestTmpCacheWriteThroughAndRepeatRead(t *testing.T) {
	clock, backing, tc, bus := newTestCache(t)
	env := storage.Client{HostID: "wp-001"}
	tc.Track(env.HostID)

	putAll(t, clock, tc, env, blk("s0-m0-r0", 1<<20), blk("s0-m1-r0", 1<<20))
	if backing.blocks["s0-m0-r0"].Size != 1<<20 {
		t.Fatalf("write-through: backing store missing block")
	}

	// First read: the writer's own blocks are already in /tmp.
	got, took := fetchAll(t, clock, tc, env, "s0-m0-r0", "s0-m1-r0")
	if len(got) != 2 || got[0].ID != "s0-m0-r0" || got[1].ID != "s0-m1-r0" {
		t.Fatalf("wrong blocks back: %v", got)
	}
	if backing.fetchCalls != 0 {
		t.Fatalf("pure-hit fetch reached the backing store")
	}
	if took > 5*time.Millisecond {
		t.Fatalf("pure-hit fetch took %v, want ~1ms", took)
	}
	if tc.Hits() != 2 || tc.Misses() != 0 {
		t.Fatalf("hits=%d misses=%d, want 2/0", tc.Hits(), tc.Misses())
	}
	var hitEvents int
	for _, e := range bus.Events() {
		if e.Type == eventlog.TmpCacheHit {
			hitEvents++
			if e.Exec != "wp-001" || e.Bytes != 2<<20 {
				t.Fatalf("bad hit event: %+v", e)
			}
		}
	}
	if hitEvents != 1 {
		t.Fatalf("tmp_cache_hit events = %d, want 1 (aggregate per fetch)", hitEvents)
	}
}

func TestTmpCacheMissPopulatesAndMixedFetch(t *testing.T) {
	clock, backing, tc, _ := newTestCache(t)
	writer := storage.Client{HostID: "vm-1"} // untracked: passthrough
	reader := storage.Client{HostID: "wp-002"}
	tc.Track(reader.HostID)

	putAll(t, clock, tc, writer, blk("a", 1<<20), blk("b", 2<<20))
	if tc.BytesFor("vm-1") != 0 {
		t.Fatalf("untracked writer must not cache")
	}

	got, took := fetchAll(t, clock, tc, reader, "a", "b")
	if len(got) != 2 {
		t.Fatalf("fetch returned %d blocks", len(got))
	}
	if took < 50*time.Millisecond {
		t.Fatalf("cold fetch took %v, want >= backing latency", took)
	}
	if tc.BytesFor(reader.HostID) != 3<<20 {
		t.Fatalf("fetched blocks should populate /tmp, got %d bytes", tc.BytesFor(reader.HostID))
	}

	// Repeat read: all from /tmp, no backing call.
	calls := backing.fetchCalls
	_, took = fetchAll(t, clock, tc, reader, "a", "b")
	if backing.fetchCalls != calls {
		t.Fatalf("repeat read hit the backing store")
	}
	if took > 5*time.Millisecond {
		t.Fatalf("repeat read took %v, want ~1ms", took)
	}

	// Mixed fetch: "c" missing — blocks come back in request order.
	putAll(t, clock, tc, writer, blk("c", 1<<20))
	got, _ = fetchAll(t, clock, tc, reader, "c", "a")
	if got[0].ID != "c" || got[1].ID != "a" {
		t.Fatalf("mixed fetch order wrong: %v", got)
	}
	if len(backing.fetchedIDs) == 0 || backing.fetchedIDs[len(backing.fetchedIDs)-1] != "c" {
		t.Fatalf("mixed fetch should only fetch the miss, got %v", backing.fetchedIDs)
	}
}

func TestTmpCacheLRUEviction(t *testing.T) {
	clock := simclock.New(simclock.Epoch)
	backing := newFakeStore(clock)
	tc := NewTmpCache(clock, nil, backing, CacheOptions{CapacityBytes: 10 << 20})
	env := storage.Client{HostID: "wp-003"}
	tc.Track(env.HostID)

	putAll(t, clock, tc, env, blk("a", 4<<20), blk("b", 4<<20))
	fetchAll(t, clock, tc, env, "a") // touch a: b becomes LRU
	putAll(t, clock, tc, env, blk("c", 4<<20))
	if tc.BytesFor(env.HostID) > 10<<20 {
		t.Fatalf("cache over capacity: %d", tc.BytesFor(env.HostID))
	}
	// b evicted, a kept.
	calls := backing.fetchCalls
	fetchAll(t, clock, tc, env, "a")
	if backing.fetchCalls != calls {
		t.Fatalf("a should still be cached")
	}
	fetchAll(t, clock, tc, env, "b")
	if backing.fetchCalls != calls+1 {
		t.Fatalf("b should have been evicted")
	}
	if tc.Evictions() < 1 || tc.EvictedBytes() < 4<<20 {
		t.Fatalf("eviction counters: %d / %d", tc.Evictions(), tc.EvictedBytes())
	}
	// A block bigger than the whole cache is never cached.
	putAll(t, clock, tc, env, blk("huge", 64<<20))
	calls = backing.fetchCalls
	fetchAll(t, clock, tc, env, "huge")
	if backing.fetchCalls != calls+1 {
		t.Fatalf("oversized block must bypass the cache")
	}
}

func TestTmpCacheDropHostAndRecycle(t *testing.T) {
	clock, backing, tc, _ := newTestCache(t)
	env := storage.Client{HostID: "wp-004"}
	tc.Track(env.HostID)
	putAll(t, clock, tc, env, blk("y", 1<<20))
	// DropHost is the engine's executor-died signal: the environment (and
	// its /tmp) survives it.
	tc.DropHost(env.HostID)
	if tc.BytesFor(env.HostID) != 1<<20 {
		t.Fatalf("DropHost must not clear a tracked environment's /tmp")
	}
	// Recycle is the environment-lifetime signal: /tmp is gone.
	tc.Recycle(env.HostID)
	if tc.BytesFor(env.HostID) != 0 || tc.Tracked() != 0 {
		t.Fatalf("Recycle left the host cache alive")
	}
	// The durable backing copy survives: a re-tracked env refetches.
	tc.Track(env.HostID)
	calls := backing.fetchCalls
	fetchAll(t, clock, tc, env, "y")
	if backing.fetchCalls != calls+1 {
		t.Fatalf("recycled env should refetch from backing")
	}
}

// TestTmpCacheRandomNeverOverCap is the cache half of satellite 3's
// property test: across randomized put/fetch/drop schedules no
// environment's /tmp bytes ever exceed the 512 MB cap.
func TestTmpCacheRandomNeverOverCap(t *testing.T) {
	const cap = int64(512 << 20)
	for seed := int64(0); seed < 10; seed++ {
		clock := simclock.New(simclock.Epoch)
		backing := newFakeStore(clock)
		tc := NewTmpCache(clock, nil, backing, CacheOptions{CapacityBytes: cap})
		rng := rand.New(rand.NewSource(seed))
		hosts := []string{"wp-001", "wp-002", "wp-003"}
		for _, h := range hosts {
			tc.Track(h)
		}
		var ids []string
		for op := 0; op < 300; op++ {
			cl := storage.Client{HostID: hosts[rng.Intn(len(hosts))]}
			switch rng.Intn(4) {
			case 0, 1: // put a fresh block, sometimes huge
				size := int64(rng.Intn(64<<20) + 1)
				if rng.Intn(10) == 0 {
					size = cap + int64(rng.Intn(1<<20))
				}
				id := fmt.Sprintf("b%d-%d", seed, op)
				ids = append(ids, id)
				putAll(t, clock, tc, cl, blk(id, size))
			case 2: // fetch a random existing block
				if len(ids) > 0 {
					fetchAll(t, clock, tc, cl, ids[rng.Intn(len(ids))])
				}
			case 3: // recycle an env
				tc.Recycle(cl.HostID)
				tc.Track(cl.HostID)
			}
			for _, h := range hosts {
				if got := tc.BytesFor(h); got > cap {
					t.Fatalf("seed %d op %d: host %s holds %d bytes > cap %d", seed, op, h, got, cap)
				}
			}
		}
	}
}
