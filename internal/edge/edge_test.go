package edge

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/faults"
	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/media"
	"github.com/neuroscaler/neuroscaler/internal/sr"
	"github.com/neuroscaler/neuroscaler/internal/synth"
	"github.com/neuroscaler/neuroscaler/internal/vcodec"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

const (
	testScale = 3
	testLRW   = 96
	testLRH   = 64
	testGOP   = 12
)

func quietf(string, ...any) {}

// testOrigin is a full media origin (enhancer pool + server) seeded
// with synthetic streams, so edge tests exercise the real wire path
// end to end.
type testOrigin struct {
	srv  *media.Server
	pool *media.EnhancerPool
}

// startOrigin boots an origin holding chunksPer chunks for each of the
// given streams. With lazy set, containers stay packets-only until the
// first fetch triggers their enhancement build.
func startOrigin(t testing.TB, lazy bool, streams []uint32, chunksPer int) *testOrigin {
	t.Helper()
	var mu sync.Mutex
	hrByStream := make(map[uint32][]*frame.Frame)
	provider := func(streamID uint32, h wire.Hello) (sr.Model, error) {
		mu.Lock()
		defer mu.Unlock()
		return sr.NewOracleModel(h.Model, hrByStream[streamID])
	}
	local, err := media.NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := media.NewEnhancerPool(
		[]media.Replica{media.StaticReplica("solo", local)},
		media.PoolConfig{Logf: quietf},
	)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := media.NewServer("127.0.0.1:0", pool, media.ServerConfig{
		AnchorFraction: 0.10, LazyEnhancement: lazy, Logf: quietf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
		_ = pool.Close()
	})
	prof, err := synth.ProfileByName("lol")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range streams {
		gen, err := synth.NewGenerator(prof, testLRW*testScale, testLRH*testScale, int64(id))
		if err != nil {
			t.Fatal(err)
		}
		hr := gen.GenerateChunk(testGOP * chunksPer)
		mu.Lock()
		hrByStream[id] = hr
		mu.Unlock()
		streamer, err := media.NewStreamer(srv.Addr(), id, wire.Hello{
			Config: vcodec.Config{
				Width: testLRW, Height: testLRH, FPS: 30, BitrateKbps: 700,
				GOP: testGOP, Mode: vcodec.ModeConstrainedVBR,
			},
			Scale: testScale, Model: sr.HighQuality(), Content: "lol",
		})
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < chunksPer; c++ {
			lr := make([]*frame.Frame, testGOP)
			for i := range lr {
				if lr[i], err = frame.Downscale(hr[c*testGOP+i], testScale); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := streamer.SendChunk(lr); err != nil {
				t.Fatalf("stream %d chunk %d: %v", id, c, err)
			}
		}
		if err := streamer.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return &testOrigin{srv: srv, pool: pool}
}

func startEdge(t testing.TB, origin *testOrigin, cfg Config) *Edge {
	t.Helper()
	cfg.Upstream = origin.srv.Addr()
	if cfg.Logf == nil {
		cfg.Logf = quietf
	}
	e, err := NewEdge("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	return e
}

// heldConn is an upstream connection whose reads wait (up to 10 s) for
// release to report true.
type heldConn struct {
	net.Conn
	release func() bool
}

func (c *heldConn) Read(p []byte) (int, error) {
	for limit := time.Now().Add(10 * time.Second); !c.release() && time.Now().Before(limit); {
		time.Sleep(100 * time.Microsecond)
	}
	return c.Conn.Read(p)
}

// TestEdgeSingleFlight is the tentpole coalescing contract: 32 viewers
// concurrently requesting the same cold chunk cause exactly one
// upstream fetch and exactly one enhancement build, asserted via the
// enhancer pool's call counters. Run under -race in CI.
func TestEdgeSingleFlight(t *testing.T) {
	const viewers = 32
	origin := startOrigin(t, true, []uint32{9}, 1)
	if got := origin.pool.Counters().Calls; got != 0 {
		t.Fatalf("lazy origin enhanced %d anchors at ingest, want 0", got)
	}
	// The origin's reply is held back until every other viewer has joined
	// the leader's flight: how many of them arrive inside a build of a few
	// milliseconds is scheduling luck, and the contract under test is what
	// happens to those that do.
	var edge atomic.Pointer[Edge]
	e := startEdge(t, origin, Config{DialUpstream: func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &heldConn{Conn: conn, release: func() bool {
			return edge.Load().Counters().CoalescedWaits == viewers-1
		}}, nil
	}})
	edge.Store(e)

	clients := make([]*Client, viewers)
	for i := range clients {
		c, err := Dial(e.Addr(), 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	var (
		wg      sync.WaitGroup
		start   = make(chan struct{})
		results = make([][]byte, viewers)
		errs    = make([]error, viewers)
	)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			<-start
			cd, err := c.FetchChunk(9, 0, 0)
			results[i], errs[i] = cd.Data, err
		}(i, c)
	}
	close(start)
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("viewer %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("viewer %d got different bytes", i)
		}
	}
	// Exactly one enhancement: the lazy origin selects one anchor per
	// test-geometry chunk, so pool calls count builds directly.
	if calls := origin.pool.Counters().Calls; calls != 1 {
		t.Errorf("enhancer pool calls = %d, want 1 (single flight collapsed to one build)", calls)
	}
	if builds := origin.srv.Counters().LazyBuilds; builds != 1 {
		t.Errorf("origin lazy builds = %d, want 1", builds)
	}
	c := e.Counters()
	if c.CacheMisses != 1 {
		t.Errorf("edge misses = %d, want 1", c.CacheMisses)
	}
	if c.CoalescedWaits != viewers-1 {
		t.Errorf("coalesced waits = %d, want %d", c.CoalescedWaits, viewers-1)
	}
	if c.FetchesServed != viewers {
		t.Errorf("fetches served = %d, want %d", c.FetchesServed, viewers)
	}

	// A refetch is a pure cache hit: no new origin work.
	cd, err := clients[0].FetchChunk(9, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cd.CacheHit {
		t.Error("refetch not flagged as cache hit")
	}
	if !bytes.Equal(cd.Data, results[0]) {
		t.Error("cache hit bytes differ from first delivery")
	}
	if calls := origin.pool.Counters().Calls; calls != 1 {
		t.Errorf("refetch grew pool calls to %d", calls)
	}
	if got := e.Counters().CacheHits; got != 1 {
		t.Errorf("edge hits = %d, want 1", got)
	}
}

// TestEdgeByteIdenticalToDirectIngest extends the byte-determinism
// contract across the delivery tier: chunks served through the edge are
// byte-identical to the containers the origin stored at ingest.
func TestEdgeByteIdenticalToDirectIngest(t *testing.T) {
	const chunks = 2
	origin := startOrigin(t, false, []uint32{4}, chunks)
	e := startEdge(t, origin, Config{})
	c, err := Dial(e.Addr(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for seq := 0; seq < chunks; seq++ {
		want, err := origin.srv.Store().Chunk(4, seq)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := c.FetchChunk(4, uint32(seq), 0)
		if err != nil {
			t.Fatalf("chunk %d: %v", seq, err)
		}
		if !bytes.Equal(cd.Data, want) {
			t.Fatalf("chunk %d: edge bytes differ from direct ingest (%d vs %d bytes)", seq, len(cd.Data), len(want))
		}
		if cd.CacheHit || cd.Degraded {
			t.Errorf("chunk %d first fetch flags = %+v", seq, cd)
		}
		hit, err := c.FetchChunk(4, uint32(seq), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !hit.CacheHit || !bytes.Equal(hit.Data, want) {
			t.Fatalf("chunk %d cache hit: flag=%v identical=%v", seq, hit.CacheHit, bytes.Equal(hit.Data, want))
		}
	}
	// Errors for absent chunks are non-fatal typed replies.
	if _, err := c.FetchChunk(4, chunks+7, 0); err == nil {
		t.Fatal("fetch of absent chunk succeeded")
	}
	if _, err := c.FetchChunk(4, 0, 0); err != nil {
		t.Fatalf("conn did not survive fetch error: %v", err)
	}
}

// TestEdgeSubscribeFanout pins the zero-copy fanout path: a subscriber
// receives every chunk another viewer pulls, byte-identical, flagged as
// cache-served, and at most once per sequence.
func TestEdgeSubscribeFanout(t *testing.T) {
	const chunks = 3
	origin := startOrigin(t, false, []uint32{6}, chunks)
	e := startEdge(t, origin, Config{})

	sub, err := Dial(e.Addr(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(6, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := e.Counters().Subscribers; got != 1 {
		t.Fatalf("subscribers = %d, want 1", got)
	}

	puller, err := Dial(e.Addr(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer puller.Close()
	for seq := 0; seq < chunks; seq++ {
		if _, err := puller.FetchChunk(6, uint32(seq), 0); err != nil {
			t.Fatalf("pull %d: %v", seq, err)
		}
	}
	seen := make(map[uint32]bool)
	for i := 0; i < chunks; i++ {
		p, err := sub.NextPush(10 * time.Second)
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		if p.StreamID != 6 || seen[p.Chunk.Seq] {
			t.Fatalf("push %d: stream %d seq %d (dup=%v)", i, p.StreamID, p.Chunk.Seq, seen[p.Chunk.Seq])
		}
		seen[p.Chunk.Seq] = true
		want, err := origin.srv.Store().Chunk(6, int(p.Chunk.Seq))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.Chunk.Data, want) {
			t.Fatalf("push seq %d bytes differ from ingest", p.Chunk.Seq)
		}
		if !p.Chunk.CacheHit {
			t.Errorf("push seq %d not flagged cache-served", p.Chunk.Seq)
		}
	}
	// Re-pulling an already-pushed chunk must not re-push it: the
	// per-subscriber watermark makes fanout at-most-once.
	if _, err := puller.FetchChunk(6, 1, 0); err != nil {
		t.Fatal(err)
	}
	if p, err := sub.NextPush(200 * time.Millisecond); err == nil {
		t.Fatalf("duplicate push: %+v", p)
	} else if err != ErrNoPush {
		t.Fatal(err)
	}
	if got := e.Counters().FanoutPushes; got != chunks {
		t.Errorf("fanout pushes = %d, want %d", got, chunks)
	}

	// Pullers and subscribers mixed on a lazy origin: however the
	// concurrent pulls interleave, each distinct chunk costs at most one
	// edge miss and one enhancement (one anchor per test chunk).
	streams := []uint32{11, 12}
	lazy := startOrigin(t, true, streams, chunks)
	le := startEdge(t, lazy, Config{})
	var wg sync.WaitGroup
	errs := make(chan error, 3*len(streams))
	for _, id := range streams {
		s, err := Dial(le.Addr(), 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Subscribe(id, 0, 0); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 3; v++ {
			c, err := Dial(le.Addr(), 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seq := 0; seq < chunks; seq++ {
					if _, err := c.FetchChunk(id, uint32(seq), 0); err != nil {
						errs <- fmt.Errorf("stream %d chunk %d: %w", id, seq, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	distinct := uint64(len(streams) * chunks)
	lc := le.Counters()
	if lc.CacheMisses > distinct {
		t.Errorf("lazy origin: edge misses = %d, want <= %d distinct chunks", lc.CacheMisses, distinct)
	}
	if calls := lazy.pool.Counters().Calls; calls > distinct {
		t.Errorf("lazy origin: enhancer pool calls = %d, want <= %d distinct chunks", calls, distinct)
	}
	if lc.FanoutPushes < uint64(len(streams)) {
		t.Errorf("lazy origin: fanout pushes = %d, want >= one per subscribed stream", lc.FanoutPushes)
	}
}

// TestClientChunksOwnTheirBytes: the client decodes a reply in place, so
// pin that every delivery still owns its Data — two fetches of one key
// and the push of it share no memory with each other.
func TestClientChunksOwnTheirBytes(t *testing.T) {
	origin := startOrigin(t, false, []uint32{4}, 1)
	e := startEdge(t, origin, Config{})
	c, err := Dial(e.Addr(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Subscribe(4, 0, 0); err != nil {
		t.Fatal(err)
	}
	miss, err := c.FetchChunk(4, 0, 0) // the miss is pushed to the subscription too
	if err != nil {
		t.Fatal(err)
	}
	hit, err := c.FetchChunk(4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	push, err := c.NextPush(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want, err := origin.srv.Store().Chunk(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := [][]byte{miss.Data, hit.Data, push.Chunk.Data}
	for i := range got {
		if !bytes.Equal(got[i], want) {
			t.Fatalf("delivery %d differs from the stored chunk", i)
		}
	}
	for i := range got {
		for j := range got[i] {
			got[i][j] ^= 0xFF
		}
		for k := range got {
			if k != i && !bytes.Equal(got[k], want) {
				t.Errorf("writing delivery %d changed delivery %d: they share memory", i, k)
			}
		}
		for j := range got[i] {
			got[i][j] ^= 0xFF
		}
	}
}

// TestEdgeUpstreamChaos drives the origin link through a fault gate:
// with the link dead, fetches fail with typed errors but cached chunks
// keep serving and viewer conns survive; after revival the edge redials
// and recovers without restart.
func TestEdgeUpstreamChaos(t *testing.T) {
	origin := startOrigin(t, false, []uint32{2}, 2)
	gate := &faults.Gate{}
	inj := faults.MustInjector(1, faults.Config{})
	e := startEdge(t, origin, Config{
		DialUpstream: func(addr string) (net.Conn, error) {
			if gate.Dead() {
				return nil, fmt.Errorf("edge_test: upstream link dead")
			}
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return faults.WrapConn(conn, inj, gate), nil
		},
	})
	c, err := Dial(e.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.FetchChunk(2, 0, 0); err != nil {
		t.Fatalf("healthy fetch: %v", err)
	}
	gate.Kill()
	if _, err := c.FetchChunk(2, 1, 0); err == nil {
		t.Fatal("fetch over dead link succeeded")
	}
	// Cached chunk still serves, on the same viewer conn.
	cd, err := c.FetchChunk(2, 0, 0)
	if err != nil {
		t.Fatalf("cached fetch during outage: %v", err)
	}
	if !cd.CacheHit {
		t.Error("outage-time delivery not from cache")
	}
	if got := e.Counters().UpstreamErrors; got == 0 {
		t.Error("upstream errors not counted")
	}
	gate.Revive()
	if _, err := c.FetchChunk(2, 1, 0); err != nil {
		t.Fatalf("fetch after revival: %v", err)
	}
}

// TestEdgeRestartColdCache models an edge crash/replace: a fresh edge in
// front of the same origin starts cold but serves identical bytes.
func TestEdgeRestartColdCache(t *testing.T) {
	origin := startOrigin(t, false, []uint32{8}, 1)
	e1 := startEdge(t, origin, Config{})
	c1, err := Dial(e1.Addr(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c1.FetchChunk(8, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = c1.Close()
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := startEdge(t, origin, Config{})
	c2, err := Dial(e2.Addr(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	again, err := c2.FetchChunk(8, 0, 0)
	if err != nil {
		t.Fatalf("fetch from replacement edge: %v", err)
	}
	if again.CacheHit {
		t.Error("replacement edge claimed a warm cache")
	}
	if !bytes.Equal(again.Data, first.Data) {
		t.Error("replacement edge served different bytes")
	}
	if got := e2.Counters().CacheMisses; got != 1 {
		t.Errorf("replacement edge misses = %d, want 1", got)
	}
}

// TestEdgeSmallCacheAdmits pins the cache's capacity as one budget: an
// edge whose CacheBytes is exactly four containers caches all four,
// where a cache split into hash shards would give each shard less than
// one container and admit nothing.
func TestEdgeSmallCacheAdmits(t *testing.T) {
	const chunks = 4
	origin := startOrigin(t, false, []uint32{4}, chunks)
	fetchAll := func(e *Edge) {
		t.Helper()
		c, err := Dial(e.Addr(), 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for seq := uint32(0); seq < chunks; seq++ {
			if _, err := c.FetchChunk(4, seq, 0); err != nil {
				t.Fatalf("chunk %d: %v", seq, err)
			}
		}
	}
	probe := startEdge(t, origin, Config{})
	fetchAll(probe)
	if probe.cache.Len() != chunks {
		t.Fatalf("probe edge holds %d entries, want %d", probe.cache.Len(), chunks)
	}

	e := startEdge(t, origin, Config{CacheBytes: probe.cache.Bytes()})
	fetchAll(e)
	fetchAll(e)
	if got := e.cache.Len(); got != chunks {
		t.Errorf("cache holds %d entries, want %d", got, chunks)
	}
	if c := e.Counters(); c.CacheMisses != chunks || c.CacheHits != chunks || c.AdmissionRejects != 0 {
		t.Errorf("misses/hits/rejects = %d/%d/%d, want %d/%d/0", c.CacheMisses, c.CacheHits, c.AdmissionRejects, chunks, chunks)
	}
}

// TestEdgeMetricsEndpoint checks the ops surface: the Prometheus
// endpoint exposes the delivery counters and both latency histograms.
func TestEdgeMetricsEndpoint(t *testing.T) {
	origin := startOrigin(t, false, []uint32{5}, 1)
	e := startEdge(t, origin, Config{})
	c, err := Dial(e.Addr(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.FetchChunk(5, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchChunk(5, 0, 0); err != nil {
		t.Fatal(err)
	}
	// The edge observes a delivery's latency after writing its reply, so
	// the client can get here first; wait for the observation, not for luck.
	for wait := time.Now().Add(5 * time.Second); e.hitLatency.Count() == 0 && time.Now().Before(wait); {
		time.Sleep(time.Millisecond)
	}

	rec := httptest.NewRecorder()
	e.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"neuroscaler_edge_cache_hits_total 1",
		"neuroscaler_edge_cache_misses_total 1",
		"neuroscaler_edge_coalesced_waits_total 0",
		"neuroscaler_edge_admission_rejects_total 0",
		"neuroscaler_edge_fetches_served_total 2",
		"neuroscaler_edge_hit_latency_seconds_count 1",
		"neuroscaler_edge_miss_latency_seconds_count 1",
		"neuroscaler_edge_cache_entries 1",
	} {
		if !bytes.Contains([]byte(body), []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if e.hitLatency.Count() != 1 || e.missLatency.Count() != 1 {
		t.Errorf("latency hists: hit=%d miss=%d, want 1/1", e.hitLatency.Count(), e.missLatency.Count())
	}
}

// TestCloseWithIdlePeer: the edge's Close must not wait out the idle
// timeout of a viewer that is connected and silent. It closes the live
// conns as well as the listener, returns promptly, is a no-op the second
// time, and leaves no goroutine behind.
func TestCloseWithIdlePeer(t *testing.T) {
	origin := startOrigin(t, false, []uint32{4}, 1)
	base := runtime.NumGoroutine()
	e := startEdge(t, origin, Config{})
	peer, err := net.Dial("tcp", e.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	// One ping round trip proves the handler is up and parked in its next
	// read; then the peer says nothing more.
	_ = peer.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.Write(peer, wire.Message{Type: wire.TypePing, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if reply, err := wire.Read(peer, wire.DefaultMaxPayload); err != nil || reply.Type != wire.TypePong {
		t.Fatalf("ping: %v, %v", reply.Type, err)
	}

	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close still blocked after 1s with one idle viewer connected")
	}
	if err := e.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	peer.Close()
	for limit := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(limit) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines alive, want <= %d; stacks:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}
