package media

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// fetchChunkRaw asks an origin for one chunk over a fresh wire
// connection, the way an edge does.
func fetchChunkRaw(t testing.TB, addr string, streamID uint32, seq int, budget time.Duration) (wire.ChunkData, error) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	req := wire.Message{
		Type:     wire.TypeFetchChunk,
		StreamID: streamID,
		Seq:      1,
		Payload:  wire.AppendFetchChunk(nil, wire.FetchChunk{Seq: uint32(seq)}),
		Budget:   budget,
	}
	if err := wire.Write(conn, req); err != nil {
		t.Fatal(err)
	}
	reply, err := wire.Read(conn, wire.DefaultMaxPayload)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type == wire.TypeError {
		return wire.ChunkData{}, remoteError("media: fetch", reply.Payload)
	}
	if reply.Type != wire.TypeChunkData || reply.Seq != req.Seq {
		t.Fatalf("fetch reply = %+v", reply)
	}
	return wire.DecodeChunkData(reply.Payload)
}

// ingestStream uploads `chunks` GOP-aligned chunks of the oracle's
// content for streamID.
func ingestStream(t testing.TB, addr string, streamID uint32, store *oracleStore, chunks int) {
	t.Helper()
	streamer, err := NewStreamer(addr, streamID, testHello())
	if err != nil {
		t.Fatal(err)
	}
	defer streamer.Close()
	lr := lrFromHR(t, store.get(streamID))
	for i := 0; i < chunks*testGOP; i += testGOP {
		if _, err := streamer.SendChunk(lr[i : i+testGOP]); err != nil {
			t.Fatalf("chunk %d: %v", i/testGOP, err)
		}
	}
}

// TestLazyEnhancementByteIdentical pins the deferred-build contract: a
// lazily-enhanced chunk, built at first fetch, is byte-identical to the
// same chunk enhanced eagerly at ingest — and the write-back replaces
// the pending packets-only container in the store.
func TestLazyEnhancementByteIdentical(t *testing.T) {
	const chunks = 2
	newServer := func(lazy bool) (*Server, *oracleStore) {
		provider, store := contentOracle(t, chunks*testGOP)
		local, err := NewLocalEnhancer(provider)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer("127.0.0.1:0", local, ServerConfig{
			AnchorFraction: 0.10, LazyEnhancement: lazy, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv, store
	}

	eager, eagerStore := newServer(false)
	defer eager.Close()
	lazy, lazyStore := newServer(true)
	defer lazy.Close()
	ingestStream(t, eager.Addr(), 42, eagerStore, chunks)
	ingestStream(t, lazy.Addr(), 42, lazyStore, chunks)

	if got := lazy.Counters().ChunksDeferred; got != chunks {
		t.Fatalf("ChunksDeferred = %d, want %d", got, chunks)
	}
	for seq := 0; seq < chunks; seq++ {
		want, err := eager.Store().Chunk(42, seq)
		if err != nil {
			t.Fatal(err)
		}
		// Before the fetch the lazy chunk is pending and packets-only.
		if _, _, pending, err := lazy.Store().ChunkState(42, seq); err != nil || !pending {
			t.Fatalf("chunk %d pre-fetch pending = %v, %v", seq, pending, err)
		}
		got, err := fetchChunkRaw(t, lazy.Addr(), 42, seq, time.Minute)
		if err != nil {
			t.Fatalf("fetch chunk %d: %v", seq, err)
		}
		if !bytes.Equal(got.Data, want) {
			t.Fatalf("chunk %d: lazy build differs from eager bytes (%d vs %d bytes)", seq, len(got.Data), len(want))
		}
		if got.Degraded || got.CacheHit {
			t.Errorf("chunk %d flags = %+v, want clean origin delivery", seq, got)
		}
		// Write-back: the store now holds the finished container.
		data, _, pending, err := lazy.Store().ChunkState(42, seq)
		if err != nil || pending || !bytes.Equal(data, want) {
			t.Fatalf("chunk %d post-fetch: pending=%v err=%v identical=%v", seq, pending, err, bytes.Equal(data, want))
		}
		// A second fetch serves the stored bytes without another build.
		if _, err := fetchChunkRaw(t, lazy.Addr(), 42, seq, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	c := lazy.Counters()
	if c.LazyBuilds != chunks {
		t.Errorf("LazyBuilds = %d, want %d (refetch must not rebuild)", c.LazyBuilds, chunks)
	}
	if c.FetchesServed != 2*chunks {
		t.Errorf("FetchesServed = %d, want %d", c.FetchesServed, 2*chunks)
	}

	// The eager server also serves fetches (no pending build needed).
	got, err := fetchChunkRaw(t, eager.Addr(), 42, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := eager.Store().Chunk(42, 0)
	if !bytes.Equal(got.Data, want) {
		t.Error("eager origin fetch differs from stored bytes")
	}
}

// TestOriginBuildSingleFlight pins the origin-side coalescing: many
// concurrent fetches of the same cold (pending) chunk run exactly one
// enhancement build.
func TestOriginBuildSingleFlight(t *testing.T) {
	const viewers = 16
	provider, store := contentOracle(t, testGOP)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", local, ServerConfig{
		AnchorFraction: 0.10, LazyEnhancement: true, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ingestStream(t, srv.Addr(), 7, store, 1)

	var wg sync.WaitGroup
	results := make([][]byte, viewers)
	errs := make([]error, viewers)
	for i := 0; i < viewers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cd, err := fetchChunkRaw(t, srv.Addr(), 7, 0, time.Minute)
			results[i], errs[i] = cd.Data, err
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("viewer %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("viewer %d got different bytes", i)
		}
	}
	c := srv.Counters()
	if c.LazyBuilds != 1 {
		t.Errorf("LazyBuilds = %d, want exactly 1 for %d concurrent fetches", c.LazyBuilds, viewers)
	}
	if c.FetchesServed != viewers {
		t.Errorf("FetchesServed = %d, want %d", c.FetchesServed, viewers)
	}
}

// slowEnhancer spends delay on every anchor before handing it to a
// LocalEnhancer, which expires the anchor if its deadline passed
// meanwhile.
type slowEnhancer struct {
	local *LocalEnhancer
	delay time.Duration
}

func (e slowEnhancer) Register(streamID uint32, h wire.Hello) error {
	return e.local.Register(streamID, h)
}

func (e slowEnhancer) Enhance(streamID uint32, job wire.AnchorJob) (wire.AnchorResult, error) {
	time.Sleep(e.delay)
	return e.local.Enhance(streamID, job)
}

// TestLazyShortBudgetNotWrittenBack: a fetch whose budget runs out
// mid-build is served a degraded chunk, but the store keeps the chunk
// pending, so the next fetch with room to finish builds it in full —
// byte-identical to the eager build — and writes that back as final.
func TestLazyShortBudgetNotWrittenBack(t *testing.T) {
	provider, store := contentOracle(t, testGOP)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := NewServer("127.0.0.1:0", local, ServerConfig{AnchorFraction: 0.10, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer eager.Close()
	slow, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := NewServer("127.0.0.1:0", slowEnhancer{local: slow, delay: 50 * time.Millisecond}, ServerConfig{
		AnchorFraction: 0.10, LazyEnhancement: true, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	ingestStream(t, eager.Addr(), 5, store, 1)
	ingestStream(t, lazy.Addr(), 5, store, 1)
	want, err := eager.Store().Chunk(5, 0)
	if err != nil {
		t.Fatal(err)
	}

	short, err := fetchChunkRaw(t, lazy.Addr(), 5, 0, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !short.Degraded {
		t.Fatal("fetch with a 20ms budget over a 50ms/anchor enhancer was not degraded")
	}
	if _, _, pending, err := lazy.Store().ChunkState(5, 0); err != nil || !pending {
		t.Fatalf("after the short fetch: pending=%v err=%v, want the chunk still pending", pending, err)
	}

	full, err := fetchChunkRaw(t, lazy.Addr(), 5, 0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if full.Degraded || !bytes.Equal(full.Data, want) {
		t.Fatalf("second fetch: degraded=%v identical=%v, want the full eager bytes", full.Degraded, bytes.Equal(full.Data, want))
	}
	data, degraded, pending, err := lazy.Store().ChunkState(5, 0)
	if err != nil || pending || degraded || !bytes.Equal(data, want) {
		t.Fatalf("store after the full build: pending=%v degraded=%v err=%v identical=%v", pending, degraded, err, bytes.Equal(data, want))
	}
	if got := lazy.Counters().LazyBuilds; got != 2 {
		t.Errorf("LazyBuilds = %d, want 2 (the short build, then the full one)", got)
	}
}

// TestFetchErrorsAreNonFatal pins the delivery-tier contract that a
// stale or malformed *request* for data never tears down the shared
// connection: unknown chunks and unsupported qualities answer with
// typed error replies and the next fetch on the same conn still works.
func TestFetchErrorsAreNonFatal(t *testing.T) {
	provider, store := contentOracle(t, testGOP)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", local, ServerConfig{AnchorFraction: 0.10, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ingestStream(t, srv.Addr(), 3, store, 1)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	var seqs wire.SeqSource
	fetch := func(stream uint32, seq uint32, quality uint8) (wire.Message, error) {
		s := seqs.Next()
		err := wire.Write(conn, wire.Message{
			Type: wire.TypeFetchChunk, StreamID: stream, Seq: s,
			Payload: wire.AppendFetchChunk(nil, wire.FetchChunk{Seq: seq, Quality: quality}),
		})
		if err != nil {
			return wire.Message{}, err
		}
		reply, err := wire.Read(conn, wire.DefaultMaxPayload)
		if err != nil {
			return wire.Message{}, err
		}
		if reply.Seq != s {
			return wire.Message{}, fmt.Errorf("reply seq %d, want %d", reply.Seq, s)
		}
		return reply, nil
	}

	for _, bad := range []struct {
		stream, seq uint32
		quality     uint8
	}{
		{stream: 99, seq: 0},              // unknown stream
		{stream: 3, seq: 5},               // out-of-range chunk
		{stream: 3, seq: 0, quality: 250}, // unsupported quality rung
	} {
		reply, err := fetch(bad.stream, bad.seq, bad.quality)
		if err != nil {
			t.Fatalf("%+v: conn died: %v", bad, err)
		}
		if reply.Type != wire.TypeError {
			t.Fatalf("%+v: reply = %+v, want typed error", bad, reply)
		}
		// An origin's refusal is never an enhancer's unknown stream.
		if err := remoteError("media: fetch", reply.Payload); errors.Is(err, ErrUnknownStream) {
			t.Fatalf("%+v: %v wraps ErrUnknownStream", bad, err)
		}
	}
	// The connection survived all three: a real fetch still succeeds.
	reply, err := fetch(3, 0, 0)
	if err != nil || reply.Type != wire.TypeChunkData {
		t.Fatalf("post-error fetch = %+v, %v", reply, err)
	}
	want, _ := srv.Store().Chunk(3, 0)
	cd, err := wire.DecodeChunkData(reply.Payload)
	if err != nil || !bytes.Equal(cd.Data, want) {
		t.Fatalf("post-error fetch bytes mismatch: %v", err)
	}
}
