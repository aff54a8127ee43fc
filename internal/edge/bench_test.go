package edge

import (
	"net"
	"testing"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// BenchmarkEdgeServe measures the steady-state serve path: one viewer
// conn fetching a cache-resident chunk over raw wire frames. The
// interesting number is allocs/op — the zero-copy fanout write
// (marshal-once prefix + per-delivery flags tail) must not re-marshal
// the container per delivery (8 at the time of writing; the gate is
// nsbench's allocs_per_op @ delivery_zipf).
func BenchmarkEdgeServe(b *testing.B) {
	origin := startOrigin(b, true, []uint32{5}, 1)
	e := startEdge(b, origin, Config{})

	conn, err := net.Dial("tcp", e.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	var seqs wire.SeqSource

	fetch := func() {
		_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
		err := wire.Write(conn, wire.Message{
			Type: wire.TypeFetchChunk, StreamID: 5, Seq: seqs.Next(),
			Payload: wire.EncodeFetchChunk(wire.FetchChunk{Seq: 0}),
		})
		if err != nil {
			b.Fatal(err)
		}
		reply, err := wire.Read(conn, wire.DefaultMaxPayload)
		if err != nil {
			b.Fatal(err)
		}
		if reply.Type != wire.TypeChunkData {
			b.Fatalf("reply type %v", reply.Type)
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
	c := e.Counters()
	if c.CacheHits < uint64(b.N) {
		b.Fatalf("hits = %d, want >= %d (all timed fetches cache-resident)", c.CacheHits, b.N)
	}
}
