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

// hash folds the key into one 64-bit value the sketch indexes by (it
// applies its own mixing on top).
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

// Cache is one LRU over refcounted container entries, behind one mutex,
// with popularity-weighted admission: on pressure, a candidate enters
// only by outbidding the eviction victim's access frequency (estimated
// by a count-min sketch). This is the TinyLFU admission rule — a
// one-hit wonder during a flash crowd cannot displace a chunk that is
// being re-fetched every few hundred milliseconds by a steady audience.
//
// The cache is deliberately not split into hash shards: a shard holds a
// fraction of the capacity and sees a fraction of the traffic, so a
// fresh chunk competes only with the few residents of its own shard and
// a small sketch whose estimates reset before a live audience arrives.
// The lock is cheap by comparison (see DESIGN.md "Cache keying and
// layout").
type Cache struct {
	mu        sync.Mutex
	items     map[Key]*list.Element
	lru       *list.List // front = most recently used
	bytes     int64
	capacity  int64
	sketch    *sketch
	evictions atomic.Uint64
}

// NewCache builds a cache bounded to capacityBytes of resident payload.
func NewCache(capacityBytes int64) *Cache {
	// Size the sketch for twice the entry population the cache can
	// plausibly hold, assuming ~32KiB containers; newSketch rounds up
	// from there. The factor doubles the halving period too, which
	// favours frequency over recency: DESIGN.md "Admission (TinyLFU)"
	// has the trade-off as measured on live and VOD traffic.
	return &Cache{
		items:    make(map[Key]*list.Element),
		lru:      list.New(),
		capacity: capacityBytes,
		sketch:   newSketch(int(2 * capacityBytes / (32 << 10))),
	}
}

// Get returns the cached entry for k with a reference retained for the
// caller (who must release it after the delivery write). Every lookup —
// hit or miss — counts toward k's popularity.
func (c *Cache) Get(k Key) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sketch.touch(k.hash())
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	ent := el.Value.(*entry)
	ent.retain()
	return ent, true
}

// Admit offers a freshly fetched entry to the cache. Under pressure it
// evicts LRU victims only while the candidate's sketch frequency is at
// least each victim's; the first victim that outranks the candidate
// wins and the candidate is rejected instead, as is an entry larger
// than the whole cache. On admission the
// cache retains its own reference and returns true; on rejection the
// entry is untouched (the caller's reference still serves the in-flight
// deliveries, then the slab recycles).
func (c *Cache) Admit(ent *entry) bool {
	size := int64(len(ent.slab))
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.capacity {
		return false
	}
	if el, ok := c.items[ent.key]; ok {
		// A concurrent flight already admitted this key (e.g. a late
		// re-fetch after an eviction raced). Keep the incumbent.
		c.lru.MoveToFront(el)
		return false
	}
	freq := c.sketch.estimate(ent.key.hash())
	for c.bytes+size > c.capacity {
		back := c.lru.Back()
		victim := back.Value.(*entry)
		if c.sketch.estimate(victim.key.hash()) > freq {
			return false
		}
		c.evictLocked(back, victim)
	}
	ent.retain()
	c.items[ent.key] = c.lru.PushFront(ent)
	c.bytes += size
	return true
}

// evictLocked drops one resident entry and the cache's reference to it.
// Callers hold mu.
func (c *Cache) evictLocked(el *list.Element, ent *entry) {
	c.lru.Remove(el)
	delete(c.items, ent.key)
	c.bytes -= int64(len(ent.slab))
	ent.release()
	c.evictions.Add(1)
}

// Evictions reports how many entries pressure has pushed out.
func (c *Cache) Evictions() uint64 { return c.evictions.Load() }

// Len reports the resident entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes reports the resident payload bytes.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
