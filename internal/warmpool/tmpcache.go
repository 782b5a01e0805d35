package warmpool

import (
	"container/list"
	"fmt"
	"time"

	"splitserve/internal/eventlog"
	"splitserve/internal/simclock"
	"splitserve/internal/storage"
)

// hitLatency is charged for a fetch served entirely from /tmp: a local
// SSD read instead of a network transfer.
const hitLatency = time.Millisecond

// CacheOptions parameterises a TmpCache.
type CacheOptions struct {
	// CapacityBytes is the per-environment /tmp budget (default 512 MB —
	// the platform's ephemeral-storage cap). Blocks larger than the
	// capacity are never cached.
	CapacityBytes int64
}

func (o CacheOptions) withDefaults() CacheOptions {
	if o.CapacityBytes <= 0 {
		o.CapacityBytes = 512 << 20
	}
	return o
}

// TmpCache layers a function-local shuffle cache tier in front of a
// remote block store (HDFS or S3). Hosts registered with Track — Lambda
// environments with /tmp — keep an LRU copy of every block they write or
// fetch, capped at CapacityBytes; repeat reads of a cached block cost
// hitLatency instead of a network transfer. Untracked hosts (VM
// executors) pass through untouched. DropHost models environment
// recycling: the host's cached bytes vanish along with its /tmp.
type TmpCache struct {
	clock   *simclock.Clock
	bus     *eventlog.Bus
	backing storage.Store
	opts    CacheOptions

	hosts map[string]*hostCache

	hits, misses, evictions  int64
	hitBytes, evictedBytes   int64
	insertedBytes, dropHosts int64
}

type hostCache struct {
	bytes int64
	lru   *list.List // front = most recently used
	byID  map[string]*list.Element
}

type cacheEntry struct {
	id    string
	block storage.Block
}

var _ storage.Store = (*TmpCache)(nil)

// NewTmpCache wraps backing with the /tmp tier. bus may be nil.
func NewTmpCache(clock *simclock.Clock, bus *eventlog.Bus, backing storage.Store, opts CacheOptions) *TmpCache {
	return &TmpCache{
		clock:   clock,
		bus:     bus,
		backing: backing,
		opts:    opts.withDefaults(),
		hosts:   make(map[string]*hostCache),
	}
}

// Track registers hostID as having a /tmp cache. Only tracked hosts
// cache; everything else is a transparent passthrough.
func (t *TmpCache) Track(hostID string) {
	if _, ok := t.hosts[hostID]; ok {
		return
	}
	t.hosts[hostID] = &hostCache{lru: list.New(), byID: make(map[string]*list.Element)}
}

// Name implements Store.
func (t *TmpCache) Name() string { return "tmpcache(" + t.backing.Name() + ")" }

// Durable implements Store: durability is the backing store's — the
// cache is a read accelerator, never the only copy.
func (t *TmpCache) Durable() bool { return t.backing.Durable() }

// PutAll implements Store: write-through. The payload lands in the
// backing store as usual; a tracked writer also keeps a /tmp copy, so a
// bridged Lambda that writes map output and later reduces over it reads
// its own blocks for free.
func (t *TmpCache) PutAll(blocks []storage.Block, cl storage.Client, done func(error)) {
	if hc := t.hosts[cl.HostID]; hc != nil {
		t.insertBatch(hc, cl.HostID, blocks)
	}
	t.backing.PutAll(blocks, cl, done)
}

// FetchAll implements Store: cached blocks are served from /tmp, the
// rest from the backing store; fetched blocks populate the cache for the
// next repeat read. done fires once, with blocks in request order, after
// the slowest leg.
func (t *TmpCache) FetchAll(ids []string, cl storage.Client, done func([]storage.Block, error)) {
	hc := t.hosts[cl.HostID]
	if hc == nil {
		t.backing.FetchAll(ids, cl, done)
		return
	}
	out := make([]storage.Block, len(ids))
	var missing []string
	var missingIdx []int
	var hitBytes int64
	hitCount := 0
	for i, id := range ids {
		if b, ok := hc.get(id); ok {
			out[i] = b
			hitBytes += b.Size
			hitCount++
		} else {
			missing = append(missing, id)
			missingIdx = append(missingIdx, i)
		}
	}
	if hitCount > 0 {
		t.hits += int64(hitCount)
		t.hitBytes += hitBytes
		t.emit(eventlog.TmpCacheHit, cl.HostID, hitBytes,
			fmt.Sprintf("%d/%d blocks", hitCount, len(ids)))
	}
	t.misses += int64(len(missing))
	if len(missing) == 0 {
		t.clock.After(hitLatency, func() { done(out, nil) })
		return
	}
	t.backing.FetchAll(missing, cl, func(blocks []storage.Block, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		for k, b := range blocks {
			out[missingIdx[k]] = b
		}
		t.insertBatch(hc, cl.HostID, blocks)
		done(out, nil)
	})
}

// DropHost implements Store. For a tracked host the cache survives: the
// engine drops a host when an *executor* dies, but the environment — and
// its /tmp — outlives any single invocation it hosts. The authoritative
// environment-recycled signal is Recycle, wired to the warm pool's
// expiry hook. Untracked hosts forward untouched.
func (t *TmpCache) DropHost(hostID string) {
	t.backing.DropHost(hostID)
}

// Recycle discards hostID's /tmp contents and stops tracking it — the
// environment reached its lifetime and was recycled by the platform.
func (t *TmpCache) Recycle(hostID string) {
	if hc, ok := t.hosts[hostID]; ok {
		hc.clear()
		delete(t.hosts, hostID)
		t.dropHosts++
	}
}

// insertBatch caches blocks for one host, evicting LRU entries to stay
// under the capacity. One aggregate tmp_cache_evict event covers the
// whole batch to keep logs proportional to fetches, not blocks.
func (t *TmpCache) insertBatch(hc *hostCache, hostID string, blocks []storage.Block) {
	var evictedBytes int64
	evicted := 0
	for _, b := range blocks {
		if b.Size > t.opts.CapacityBytes {
			continue
		}
		if el, ok := hc.byID[b.ID]; ok {
			hc.lru.MoveToFront(el)
			continue
		}
		for hc.bytes+b.Size > t.opts.CapacityBytes {
			back := hc.lru.Back()
			if back == nil {
				break
			}
			ent := back.Value.(*cacheEntry)
			evictedBytes += ent.block.Size
			evicted++
			hc.remove(ent.id)
		}
		hc.byID[b.ID] = hc.lru.PushFront(&cacheEntry{id: b.ID, block: b})
		hc.bytes += b.Size
		t.insertedBytes += b.Size
	}
	if evicted > 0 {
		t.evictions += int64(evicted)
		t.evictedBytes += evictedBytes
		t.emit(eventlog.TmpCacheEvict, hostID, evictedBytes,
			fmt.Sprintf("%d blocks", evicted))
	}
}

func (t *TmpCache) emit(typ eventlog.Type, exec string, bytes int64, note string) {
	if t.bus == nil {
		return
	}
	ev := eventlog.Ev(typ)
	ev.Exec = exec
	ev.Kind = "tmp"
	ev.Bytes = bytes
	ev.Note = note
	t.bus.Emit(t.clock.Now(), ev)
}

func (hc *hostCache) get(id string) (storage.Block, bool) {
	el, ok := hc.byID[id]
	if !ok {
		return storage.Block{}, false
	}
	hc.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).block, true
}

func (hc *hostCache) remove(id string) {
	el, ok := hc.byID[id]
	if !ok {
		return
	}
	hc.bytes -= el.Value.(*cacheEntry).block.Size
	hc.lru.Remove(el)
	delete(hc.byID, id)
}

func (hc *hostCache) clear() {
	hc.lru.Init()
	hc.byID = make(map[string]*list.Element)
	hc.bytes = 0
}

// Hits returns how many block reads /tmp served.
func (t *TmpCache) Hits() int64 { return t.hits }

// Misses returns how many block reads fell through to the backing store.
func (t *TmpCache) Misses() int64 { return t.misses }

// HitBytes returns the bytes served from /tmp.
func (t *TmpCache) HitBytes() int64 { return t.hitBytes }

// Evictions returns how many blocks the 512 MB cap pushed out.
func (t *TmpCache) Evictions() int64 { return t.evictions }

// EvictedBytes returns the bytes evicted by the cap.
func (t *TmpCache) EvictedBytes() int64 { return t.evictedBytes }

// BytesFor returns hostID's current cached bytes (0 if untracked).
func (t *TmpCache) BytesFor(hostID string) int64 {
	if hc, ok := t.hosts[hostID]; ok {
		return hc.bytes
	}
	return 0
}

// Tracked returns how many hosts currently have live /tmp caches.
func (t *TmpCache) Tracked() int { return len(t.hosts) }
