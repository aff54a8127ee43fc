package edge

import (
	"container/list"
	"sync"
	"sync/atomic"

	"github.com/neuroscaler/neuroscaler/internal/par"
)

// Key identifies one cached container: a chunk of a stream at a quality
// rung (quality 0 is the only rung the origin serves today, but the key
// carries it so ABR variants cache side by side).
type Key struct {
	Stream  uint32
	Seq     uint32
	Quality uint8
}

// hash folds the key into one 64-bit value; shard choice and sketch
// indices both derive from it (the sketch applies its own mixing).
func (k Key) hash() uint64 {
	return mix(uint64(k.Stream)<<40 ^ uint64(k.Seq)<<8 ^ uint64(k.Quality))
}

// entry is one cached container, refcounted so zero-copy fanout writes
// can proceed while eviction runs: the slab returns to the pool only
// after the cache AND every in-flight delivery have released it.
//
// The slab holds a complete ChunkData payload as read off the upstream
// wire. prefix aliases all of it except the trailing per-delivery flags
// byte: every delivery writes the shared prefix plus a fresh 1-byte
// tail (wire.Conn.WriteShared), so hit fanout re-marshals nothing and the
// frame CRC extends from crcPrefix in O(1).
type entry struct {
	key       Key
	slab      []byte
	prefix    []byte
	crcPrefix uint32
	degraded  bool
	refs      atomic.Int32
	pool      *par.SlabPool[byte]
}

// retain adds one reference. The creator starts with one.
func (e *entry) retain() { e.refs.Add(1) }

// release drops one reference, returning the slab to the pool when the
// last holder lets go.
func (e *entry) release() {
	if e.refs.Add(-1) == 0 {
		e.pool.Put(e.slab)
	}
}

// Cache is a sharded LRU over refcounted container entries with
// popularity-weighted admission: on pressure, a candidate enters only
// by outbidding the eviction victim's access frequency (estimated by a
// per-shard count-min sketch). This is the TinyLFU admission rule — a
// one-hit wonder during a flash crowd cannot displace a chunk that is
// being re-fetched every few hundred milliseconds by a steady audience.
type Cache struct {
	shards    []*cacheShard
	perShard  int64
	evictions atomic.Uint64
}

type cacheShard struct {
	mu     sync.Mutex
	items  map[Key]*list.Element
	lru    *list.List // front = most recently used
	bytes  int64
	sketch *sketch
}

// NewCache builds a cache bounded to capacityBytes across `shards`
// lock domains (shards is rounded up to at least 1; capacity splits
// evenly).
func NewCache(capacityBytes int64, shards int) *Cache {
	if shards < 1 {
		shards = 1
	}
	c := &Cache{shards: make([]*cacheShard, shards), perShard: capacityBytes / int64(shards)}
	// Size each sketch for the entry population its shard can plausibly
	// hold, assuming ~32KiB containers; newSketch rounds up from there.
	per := int(c.perShard / (32 << 10))
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			items:  make(map[Key]*list.Element),
			lru:    list.New(),
			sketch: newSketch(per),
		}
	}
	return c
}

func (c *Cache) shard(h uint64) *cacheShard {
	return c.shards[h%uint64(len(c.shards))]
}

// Get returns the cached entry for k with a reference retained for the
// caller (who must release it after the delivery write). Every lookup —
// hit or miss — counts toward k's popularity.
func (c *Cache) Get(k Key) (*entry, bool) {
	h := k.hash()
	sh := c.shard(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.sketch.touch(h)
	el, ok := sh.items[k]
	if !ok {
		return nil, false
	}
	sh.lru.MoveToFront(el)
	ent := el.Value.(*entry)
	ent.retain()
	return ent, true
}

// Admit offers a freshly fetched entry to the cache. Under pressure it
// evicts LRU victims only while the candidate's sketch frequency is at
// least each victim's; the first victim that outranks the candidate
// wins and the candidate is rejected instead. On admission the cache
// retains its own reference and returns true; on rejection the entry is
// untouched (the caller's reference still serves the in-flight
// deliveries, then the slab recycles).
func (c *Cache) Admit(ent *entry) bool {
	size := int64(len(ent.slab))
	h := ent.key.hash()
	sh := c.shard(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if size > c.perShard {
		return false
	}
	if el, ok := sh.items[ent.key]; ok {
		// A concurrent flight already admitted this key (e.g. a late
		// re-fetch after an eviction raced). Keep the incumbent.
		sh.lru.MoveToFront(el)
		return false
	}
	freq := sh.sketch.estimate(h)
	for sh.bytes+size > c.perShard {
		back := sh.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*entry)
		if sh.sketch.estimate(victim.key.hash()) > freq {
			return false
		}
		sh.evictLocked(back, victim)
		c.evictions.Add(1)
	}
	ent.retain()
	sh.items[ent.key] = sh.lru.PushFront(ent)
	sh.bytes += size
	return true
}

func (sh *cacheShard) evictLocked(el *list.Element, ent *entry) {
	sh.lru.Remove(el)
	delete(sh.items, ent.key)
	sh.bytes -= int64(len(ent.slab))
	ent.release()
}

// Evictions reports how many entries pressure has pushed out.
func (c *Cache) Evictions() uint64 { return c.evictions.Load() }

// Len reports the resident entry count.
func (c *Cache) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// Bytes reports the resident payload bytes.
func (c *Cache) Bytes() int64 {
	var n int64
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}
