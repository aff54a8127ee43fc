package edge

import (
	"testing"
	"time"
)

// BenchmarkEdgeServe measures the steady-state serve path as a viewer
// sees it: an edge.Client (what nsbench's viewers call) fetching a
// cache-resident chunk. The interesting number is allocs/op: the hit is
// written as the cached prefix plus a flags tail and read into one
// payload the client keeps, so no container copy is made on either side
// (2 allocs/op and 24.6 KB/op for a 24 KB container on a 2-core host;
// the gate is nsbench's allocs_per_op @ delivery_zipf).
func BenchmarkEdgeServe(b *testing.B) {
	origin := startOrigin(b, true, []uint32{5}, 1)
	e := startEdge(b, origin, Config{})
	c, err := Dial(e.Addr(), 30*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	fetch := func() {
		if _, err := c.FetchChunk(5, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	fetch() // warm: populates the cache via the one upstream build
	if c := e.Counters(); c.CacheMisses != 1 {
		b.Fatalf("warm fetch: misses = %d, want 1", c.CacheMisses)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch()
	}
	b.StopTimer()
	if c := e.Counters(); c.CacheHits < uint64(b.N) {
		b.Fatalf("hits = %d, want >= %d (all timed fetches cache-resident)", c.CacheHits, b.N)
	}
}
