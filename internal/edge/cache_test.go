package edge

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/neuroscaler/neuroscaler/internal/par"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// makeEntry builds a cache entry over a pool-backed slab holding a
// synthetic container of `size` payload bytes.
func makeEntry(t *testing.T, pool *par.SlabPool[byte], k Key, size int) *entry {
	t.Helper()
	payload := wire.EncodeChunkData(wire.ChunkData{Seq: k.Seq, Quality: k.Quality, Data: make([]byte, size)})
	slab := pool.Get(len(payload))
	copy(slab, payload)
	ent, err := newEntry(k, slab, pool)
	if err != nil {
		t.Fatal(err)
	}
	return ent
}

func TestSketchEstimateAndDecay(t *testing.T) {
	s := newSketch(64)
	a, b := Key{Stream: 1, Seq: 0}.hash(), Key{Stream: 2, Seq: 9}.hash()
	for i := 0; i < 10; i++ {
		s.touch(a)
	}
	s.touch(b)
	if got := s.estimate(a); got < 10 {
		t.Errorf("estimate(a) = %d, want >= 10", got)
	}
	if got := s.estimate(b); got < 1 || got > 2 {
		t.Errorf("estimate(b) = %d, want about 1", got)
	}
	if s.estimate(a) <= s.estimate(b) {
		t.Error("popular key does not outrank cold key")
	}
	s.halve()
	if got := s.estimate(a); got < 5 || got > 6 {
		t.Errorf("post-halve estimate(a) = %d, want about 5", got)
	}
	// Saturation: counters cap at 255 instead of wrapping to small
	// values (the periodic halve may land anywhere in this run, so the
	// bound is one decay below the cap).
	for i := 0; i < 600; i++ {
		s.touch(a)
	}
	if got := s.estimate(a); got < 127 {
		t.Errorf("saturated estimate = %d, want >= 127", got)
	}
}

// TestCacheAdmissionOutranking pins the TinyLFU rule: under pressure a
// cold candidate cannot displace a frequently-accessed victim, but a
// hotter candidate can.
func TestCacheAdmissionOutranking(t *testing.T) {
	var pool par.SlabPool[byte]
	const size = 1 << 10
	entryBytes := len(wire.EncodeChunkData(wire.ChunkData{Data: make([]byte, size)}))
	cache := NewCache(int64(2 * entryBytes))

	hotA, hotB := Key{Stream: 1}, Key{Stream: 2}
	cold, warm := Key{Stream: 3}, Key{Stream: 4}
	for i := 0; i < 8; i++ {
		cache.Get(hotA)
		cache.Get(hotB)
	}
	if !cache.Admit(makeEntry(t, &pool, hotA, size)) || !cache.Admit(makeEntry(t, &pool, hotB, size)) {
		t.Fatal("admission rejected with free capacity")
	}
	if cache.Len() != 2 {
		t.Fatalf("len = %d, want 2", cache.Len())
	}

	// One-hit wonder: seen once, every victim outranks it.
	cache.Get(cold)
	coldEnt := makeEntry(t, &pool, cold, size)
	if cache.Admit(coldEnt) {
		t.Fatal("cold candidate displaced a hot victim")
	}
	if cache.Len() != 2 || cache.Evictions() != 0 {
		t.Fatalf("rejection mutated cache: len=%d evictions=%d", cache.Len(), cache.Evictions())
	}
	// The rejected entry still serves its in-flight delivery, then dies.
	if got := coldEnt.refs.Load(); got != 1 {
		t.Fatalf("rejected entry refs = %d, want 1", got)
	}
	coldEnt.release()

	// A candidate hotter than the LRU victim gets in; the victim goes.
	for i := 0; i < 20; i++ {
		cache.Get(warm)
	}
	if !cache.Admit(makeEntry(t, &pool, warm, size)) {
		t.Fatal("hot candidate rejected")
	}
	if cache.Len() != 2 || cache.Evictions() != 1 {
		t.Fatalf("after displacement: len=%d evictions=%d", cache.Len(), cache.Evictions())
	}
	if _, ok := cache.Get(warm); !ok {
		t.Fatal("admitted candidate not resident")
	}
}

// TestCacheRefcountAcrossEviction pins the fanout-safety contract: an
// entry checked out by a reader survives its own eviction, and the slab
// recycles only after the last holder releases.
func TestCacheRefcountAcrossEviction(t *testing.T) {
	var pool par.SlabPool[byte]
	const size = 1 << 10
	entryBytes := len(wire.EncodeChunkData(wire.ChunkData{Data: make([]byte, size)}))
	cache := NewCache(int64(entryBytes)) // room for exactly one entry

	k1, k2 := Key{Stream: 1}, Key{Stream: 2}
	cache.Get(k1)
	ent := makeEntry(t, &pool, k1, size)
	if !cache.Admit(ent) {
		t.Fatal("admit k1")
	}
	if got := ent.refs.Load(); got != 2 {
		t.Fatalf("refs after admit = %d, want 2 (creator + cache)", got)
	}
	got, ok := cache.Get(k1)
	if !ok || got != ent {
		t.Fatal("Get did not return the admitted entry")
	}
	if refs := ent.refs.Load(); refs != 3 {
		t.Fatalf("refs after Get = %d, want 3", refs)
	}

	// Displace k1 while the reader still holds it.
	for i := 0; i < 8; i++ {
		cache.Get(k2)
	}
	if !cache.Admit(makeEntry(t, &pool, k2, size)) {
		t.Fatal("admit k2")
	}
	if cache.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", cache.Evictions())
	}
	// Cache's ref dropped with the eviction; the creator and the reader
	// remain, and the prefix bytes are still intact for fanout writes.
	if refs := ent.refs.Load(); refs != 2 {
		t.Fatalf("refs after eviction = %d, want 2", refs)
	}
	if _, _, err := wire.ChunkDataPrefix(ent.slab); err != nil {
		t.Fatalf("evicted-but-held entry corrupted: %v", err)
	}
	ent.release()
	ent.release()
	if refs := ent.refs.Load(); refs != 0 {
		t.Fatalf("refs after final release = %d, want 0", refs)
	}
}

// TestCacheKeepsIncumbentOnDoubleAdmit covers the flight race: if two
// builds of the same key complete, the second admit keeps the incumbent
// and reports rejection.
func TestCacheKeepsIncumbentOnDoubleAdmit(t *testing.T) {
	var pool par.SlabPool[byte]
	cache := NewCache(1 << 20)
	k := Key{Stream: 7, Seq: 3}
	first := makeEntry(t, &pool, k, 256)
	second := makeEntry(t, &pool, k, 256)
	if !cache.Admit(first) {
		t.Fatal("first admit")
	}
	if cache.Admit(second) {
		t.Fatal("duplicate admit accepted")
	}
	got, ok := cache.Get(k)
	if !ok || got != first {
		t.Fatal("incumbent lost to duplicate")
	}
	got.release()
	second.release()
	if cache.Len() != 1 {
		t.Fatalf("len = %d, want 1", cache.Len())
	}
}

// TestCacheOversizeEntry: an entry larger than the whole cache can never
// be admitted (it would evict everything and still not fit).
func TestCacheOversizeEntry(t *testing.T) {
	var pool par.SlabPool[byte]
	cache := NewCache(512)
	ent := makeEntry(t, &pool, Key{Stream: 1}, 4<<10)
	if cache.Admit(ent) {
		t.Fatal("oversize entry admitted")
	}
	ent.release()
}

// policyEntryBytes is a container of the benchmark's live geometry.
const policyEntryBytes = 44 << 10

// replayHitRate plays a fetch trace through the cache the way a leader
// fetch does: a hit is served from memory, a miss fetches a fresh entry
// and offers it to Admit. It returns the hits' share of the trace.
func replayHitRate(cache *Cache, trace []Key) float64 {
	var pool par.SlabPool[byte]
	hits := 0
	for _, k := range trace {
		if ent, ok := cache.Get(k); ok {
			hits++
			ent.release()
			continue
		}
		ent := &entry{key: k, slab: pool.Get(policyEntryBytes), pool: &pool}
		ent.refs.Store(1)
		cache.Admit(ent)
		ent.release()
	}
	return float64(hits) / float64(len(trace))
}

// liveTrace is the live_mixed benchmark's fetch shape: streams publish
// chunks in turn, a follower fetches every chunk as it is published,
// and late joiners (100 per published chunk) fetch 1+⌊Exp(6)⌋ chunks
// behind the newest of a random stream, capped at 48.
func liveTrace(seed int64, chunks int) []Key {
	const streams, preload, joinersPerChunk = 4, 8, 100
	rng := rand.New(rand.NewSource(seed))
	var newest [streams]int64
	for s := range newest {
		newest[s] = preload - 1
	}
	trace := make([]Key, 0, chunks*(1+joinersPerChunk))
	for i := 0; i < chunks; i++ {
		s := i % streams
		newest[s]++
		trace = append(trace, Key{Stream: uint32(s + 1), Seq: uint32(newest[s])})
		for j := 0; j < joinersPerChunk; j++ {
			s := rng.Intn(streams)
			behind := min(1+int64(rng.ExpFloat64()*6), 48)
			trace = append(trace, Key{Stream: uint32(s + 1), Seq: uint32(max(newest[s]-behind, 0))})
		}
	}
	return trace
}

// zipfTrace is the delivery_zipf benchmark's fetch shape: Zipf(1.0)
// ranks over a catalog of 32 streams × 8 chunks.
func zipfTrace(seed int64, fetches int) []Key {
	const catalog = 256
	cdf := make([]float64, catalog)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	rng := rand.New(rand.NewSource(seed))
	trace := make([]Key, fetches)
	for i := range trace {
		rank := min(sort.SearchFloat64s(cdf, rng.Float64()*sum), catalog-1)
		trace[i] = Key{Stream: uint32(rank/8 + 1), Seq: uint32(rank % 8)}
	}
	return trace
}

// TestCachePolicyTrafficShapes pins the admission policy against both
// traffic shapes the edge serves: live viewers, whose popularity is
// recency, and a VOD catalog, whose popularity is frequency. The live
// cache is live_mixed's 2 MiB (about 47 containers); the VOD cache holds
// 25 % of its catalog's bytes. Most of what the live trace misses is
// beyond the cache's reach: the newest ~11 chunks of each stream fit,
// and P(1+⌊Exp(6)⌋ ≤ 11) ≈ 0.84 bounds any policy.
func TestCachePolicyTrafficShapes(t *testing.T) {
	for _, seed := range []int64{13, 21, 22} {
		live := replayHitRate(NewCache(2<<20), liveTrace(seed, 2000))
		vod := replayHitRate(NewCache(256*policyEntryBytes/4), zipfTrace(seed, 200_000))
		t.Logf("seed %d: live hit rate %.3f, VOD hit rate %.3f", seed, live, vod)
		if live < 0.65 {
			t.Errorf("seed %d: live hit rate %.3f, want >= 0.65", seed, live)
		}
		if vod < 0.755 {
			t.Errorf("seed %d: VOD hit rate %.3f, want >= 0.755", seed, vod)
		}
	}
}
