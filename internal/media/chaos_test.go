package media

import (
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/faults"
	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/hybrid"
	"github.com/neuroscaler/neuroscaler/internal/metrics"
	"github.com/neuroscaler/neuroscaler/internal/vcodec"
)

// chaosPoolConfig keeps retry/breaker timing tight so chaos tests drive
// the full state machine in milliseconds.
func chaosPoolConfig() PoolConfig {
	return PoolConfig{
		MaxRetries:       2,
		RetryBaseDelay:   100 * time.Microsecond,
		RetryMaxDelay:    time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Millisecond,
		Seed:             7,
		Logf:             func(string, ...any) {},
	}
}

// bilinearFloorTolerance absorbs the warp-resampling loss of the
// anchorless decode path: with zero anchors the client reconstructs by
// codec-guided reuse over a bilinear key frame, which tracks the
// per-frame bilinear upscale to within a fraction of a dB (measured
// ≤ 0.6 dB on the synthetic profiles) but is not pointwise identical.
const bilinearFloorTolerance = 0.75

// bilinearBaseline decodes a container's video packets and upscales each
// visible frame bilinearly: the bottom rung of the degradation ladder,
// what a viewer gets with every anchor missing and no reuse.
func bilinearBaseline(t *testing.T, c *hybrid.Container) []*frame.Frame {
	t.Helper()
	dec, err := vcodec.NewDecoder(c.Config.Width, c.Config.Height)
	if err != nil {
		t.Fatal(err)
	}
	var out []*frame.Frame
	for _, cf := range c.Frames {
		d, err := dec.Decode(cf.VideoPacket)
		if err != nil {
			t.Fatal(err)
		}
		if d.Info.Type == vcodec.AltRef {
			continue // invisible
		}
		up, err := frame.ScaleBilinear(d.Frame, c.Config.Width*c.Scale, c.Config.Height*c.Scale)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, up)
	}
	return out
}

// chunkPSNRs returns (delivered, baseline) mean PSNR for one stored
// chunk against the HR ground truth slice.
func chunkPSNRs(t *testing.T, viewer *Viewer, streamID uint32, seq int, hr []*frame.Frame) (float64, float64) {
	t.Helper()
	c, err := viewer.FetchChunk(streamID, seq)
	if err != nil {
		t.Fatalf("stream %d chunk %d: fetch: %v", streamID, seq, err)
	}
	out, err := hybrid.Decode(c)
	if err != nil {
		t.Fatalf("stream %d chunk %d: decode: %v", streamID, seq, err)
	}
	if len(out) != len(hr) {
		t.Fatalf("stream %d chunk %d: %d frames, want %d", streamID, seq, len(out), len(hr))
	}
	got, err := metrics.MeanPSNR(hr, out)
	if err != nil {
		t.Fatal(err)
	}
	base, err := metrics.MeanPSNR(hr, bilinearBaseline(t, c))
	if err != nil {
		t.Fatal(err)
	}
	return got, base
}

// TestChaosKillAndRecoverSingleReplica is the acceptance chaos test:
// kill the enhancement tier mid-stream, keep streaming, revive it, and
// verify (a) zero failed or lost chunks, (b) the degraded-chunk counter
// rises exactly during the outage, (c) it stops rising and the breaker
// closes once the replica rejoins. Everything is gate-driven (no
// probabilistic faults), so the outcome is identical on every run.
func TestChaosKillAndRecoverSingleReplica(t *testing.T) {
	const (
		chunks   = 6
		killAt   = 2 // chunks [2,4) are sent during the outage
		reviveAt = 4
		frames   = chunks * testGOP
		streamID = 42
	)
	provider, store := contentOracle(t, frames)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	gate := &faults.Gate{}
	flaky := &faults.FlakyEnhancer{
		Inner: local,
		Inj:   faults.MustInjector(1, faults.Config{}), // gate-only chaos
		Gate:  gate,
	}
	pool, err := NewEnhancerPool([]Replica{StaticReplica("solo", flaky)}, chaosPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	srv, err := NewServer("127.0.0.1:0", pool, ServerConfig{AnchorFraction: 0.15, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	streamer, err := NewStreamer(srv.Addr(), streamID, testHello())
	if err != nil {
		t.Fatal(err)
	}
	defer streamer.Close()

	hr := store.get(streamID)
	lr := lrFromHR(t, hr)
	for i := 0; i < chunks; i++ {
		switch i {
		case killAt:
			gate.Kill()
		case reviveAt:
			gate.Revive()
			// Let the breaker cooldown elapse so the next anchor admits a
			// half-open probe.
			time.Sleep(20 * time.Millisecond)
		}
		if _, err := streamer.SendChunk(lr[i*testGOP : (i+1)*testGOP]); err != nil {
			t.Fatalf("chunk %d failed (chunks must degrade, not fail): %v", i, err)
		}
		want := uint64(0)
		if i >= killAt {
			want = uint64(min(i, reviveAt-1) - killAt + 1)
		}
		if got := srv.Counters().ChunksDegraded; got != want {
			t.Fatalf("after chunk %d: degraded counter = %d, want %d", i, got, want)
		}
	}

	// No chunk was lost, and exactly the outage chunks are degraded.
	if n := srv.Store().ChunkCount(streamID); n != chunks {
		t.Fatalf("stored %d chunks, want %d", n, chunks)
	}
	if n := srv.Store().DegradedCount(streamID); n != reviveAt-killAt {
		t.Fatalf("degraded chunks = %d, want %d", n, reviveAt-killAt)
	}
	for seq := 0; seq < chunks; seq++ {
		_, deg, _, err := srv.Store().ChunkState(streamID, seq)
		if err != nil {
			t.Fatal(err)
		}
		if want := seq >= killAt && seq < reviveAt; deg != want {
			t.Errorf("chunk %d degraded = %v, want %v", seq, deg, want)
		}
	}
	sc := srv.Counters()
	if sc.ChunksProcessed != chunks || sc.ChunksDegraded != reviveAt-killAt {
		t.Errorf("server counters: %+v", sc)
	}
	if sc.AnchorsDropped == 0 || sc.AnchorsEnhanced == 0 {
		t.Errorf("anchor counters: %+v", sc)
	}
	requireAnchorLedger(t, sc)

	// The replica rejoined: the breaker is closed again and the outage
	// left its trace in the pool counters.
	if st := pool.ReplicaStats()[0].State; st != BreakerClosed {
		t.Errorf("breaker = %v after rejoin, want closed", st)
	}
	pc := pool.Counters()
	if pc.BreakerOpens == 0 || pc.BreakerCloses == 0 || pc.Unavailable == 0 {
		t.Errorf("pool counters: %+v", pc)
	}

	// Every chunk — healthy or degraded — decodes; degraded chunks sit at
	// or above the bilinear floor, healthy ones far above it.
	httpSrv := httptest.NewServer(srv.DistributionHandler())
	defer httpSrv.Close()
	viewer := NewViewer(httpSrv.URL)
	for seq := 0; seq < chunks; seq++ {
		got, base := chunkPSNRs(t, viewer, streamID, seq, hr[seq*testGOP:(seq+1)*testGOP])
		degraded := seq >= killAt && seq < reviveAt
		t.Logf("chunk %d degraded=%v psnr=%.2f dB baseline=%.2f dB", seq, degraded, got, base)
		if got < base-bilinearFloorTolerance {
			t.Errorf("chunk %d: %.2f dB below the bilinear floor %.2f dB", seq, got, base)
		}
		if !degraded && got < 26 {
			t.Errorf("healthy chunk %d: %.2f dB", seq, got)
		}
	}

	// The stream list and stats endpoint surface the degradation.
	infos, err := viewer.Streams()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].DegradedChunks != reviveAt-killAt {
		t.Errorf("stream infos = %+v", infos)
	}
	text := getMetrics(t, httpSrv.URL)
	for _, want := range []string{
		fmt.Sprintf("neuroscaler_chunks_degraded_total %d\n", reviveAt-killAt),
		"neuroscaler_pool_calls_total ",
		`neuroscaler_pool_replica_breaker_state{replica="solo",state="closed"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	requireLedgerClosed(t, pool)
}

// TestChaosFailoverHidesReplicaLoss kills one of two replicas mid-stream
// and verifies the pool's failover keeps every chunk at full quality: no
// degradation ever reaches the store.
func TestChaosFailoverHidesReplicaLoss(t *testing.T) {
	const (
		chunks   = 4
		frames   = chunks * testGOP
		streamID = 9
	)
	provider, store := contentOracle(t, frames)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	gate := &faults.Gate{}
	doomed := &faults.FlakyEnhancer{Inner: local, Inj: faults.MustInjector(2, faults.Config{}), Gate: gate}
	pool, err := NewEnhancerPool([]Replica{
		StaticReplica("doomed", doomed),
		StaticReplica("healthy", local),
	}, chaosPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv, err := NewServer("127.0.0.1:0", pool, ServerConfig{AnchorFraction: 0.15, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	streamer, err := NewStreamer(srv.Addr(), streamID, testHello())
	if err != nil {
		t.Fatal(err)
	}
	defer streamer.Close()

	hr := store.get(streamID)
	lr := lrFromHR(t, hr)
	for i := 0; i < chunks; i++ {
		if i == 1 {
			gate.Kill() // stays dead for the rest of the stream
		}
		if _, err := streamer.SendChunk(lr[i*testGOP : (i+1)*testGOP]); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	if n := srv.Store().DegradedCount(streamID); n != 0 {
		t.Errorf("failover leaked %d degraded chunks", n)
	}
	sc := srv.Counters()
	if sc.AnchorsDropped != 0 {
		t.Errorf("anchors dropped despite a healthy replica: %+v", sc)
	}
	requireAnchorLedger(t, sc)
	requireLedgerClosed(t, pool)

	httpSrv := httptest.NewServer(srv.DistributionHandler())
	defer httpSrv.Close()
	viewer := NewViewer(httpSrv.URL)
	for seq := 0; seq < chunks; seq++ {
		got, _ := chunkPSNRs(t, viewer, streamID, seq, hr[seq*testGOP:(seq+1)*testGOP])
		if got < 26 {
			t.Errorf("chunk %d: %.2f dB with failover, want full quality", seq, got)
		}
	}
}

// TestChaosStressConcurrentStreams pushes 4 concurrent streams through a
// 2-replica pool whose replicas inject seeded faults (errors, stalls,
// drops, corrupted anchor payloads). Every chunk must be stored and
// decodable, and no chunk may fall below the bilinear floor.
func TestChaosStressConcurrentStreams(t *testing.T) {
	const (
		nStreams = 4
		chunks   = 3
		frames   = chunks * testGOP
	)
	provider, store := contentOracle(t, frames)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	chaos := faults.Config{
		ErrorRate:   0.15,
		StallRate:   0.05,
		DropRate:    0.05,
		CorruptRate: 0.10,
		StallFor:    200 * time.Microsecond,
	}
	pool, err := NewEnhancerPool([]Replica{
		StaticReplica("flaky-a", &faults.FlakyEnhancer{Inner: local, Inj: faults.MustInjector(11, chaos)}),
		StaticReplica("flaky-b", &faults.FlakyEnhancer{Inner: local, Inj: faults.MustInjector(22, chaos)}),
	}, chaosPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv, err := NewServer("127.0.0.1:0", pool, ServerConfig{AnchorFraction: 0.15, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, nStreams)
	for s := 0; s < nStreams; s++ {
		id := uint32(100 + s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			streamer, err := NewStreamer(srv.Addr(), id, testHello())
			if err != nil {
				errs <- fmt.Errorf("stream %d: %v", id, err)
				return
			}
			defer streamer.Close()
			lr := lrFromHR(t, store.get(id))
			for i := 0; i < chunks; i++ {
				if _, err := streamer.SendChunk(lr[i*testGOP : (i+1)*testGOP]); err != nil {
					errs <- fmt.Errorf("stream %d chunk %d: %v", id, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	httpSrv := httptest.NewServer(srv.DistributionHandler())
	defer httpSrv.Close()
	viewer := NewViewer(httpSrv.URL)
	degradedTotal := 0
	for s := 0; s < nStreams; s++ {
		id := uint32(100 + s)
		if n := srv.Store().ChunkCount(id); n != chunks {
			t.Fatalf("stream %d stored %d chunks, want %d", id, n, chunks)
		}
		hr := store.get(id)
		for seq := 0; seq < chunks; seq++ {
			got, base := chunkPSNRs(t, viewer, id, seq, hr[seq*testGOP:(seq+1)*testGOP])
			_, deg, _, err := srv.Store().ChunkState(id, seq)
			if err != nil {
				t.Fatal(err)
			}
			if deg {
				degradedTotal++
			}
			t.Logf("stream %d chunk %d degraded=%v psnr=%.2f dB baseline=%.2f dB", id, seq, deg, got, base)
			if got < base-bilinearFloorTolerance {
				t.Errorf("stream %d chunk %d: %.2f dB below the bilinear floor %.2f dB", id, seq, got, base)
			}
			if !deg && got < 24 {
				t.Errorf("stream %d chunk %d: %.2f dB undegraded", id, seq, got)
			}
		}
	}
	sc := srv.Counters()
	t.Logf("server counters: %+v; pool counters: %+v; degraded chunks: %d", sc, pool.Counters(), degradedTotal)
	if sc.ChunksProcessed != nStreams*chunks {
		t.Errorf("processed %d chunks, want %d", sc.ChunksProcessed, nStreams*chunks)
	}
	requireAnchorLedger(t, sc)
	requireLedgerClosed(t, pool)
}

// TestChaosCorruptAnchorsRejected forces every anchor payload to arrive
// corrupted and verifies server-side validation rejects them all: chunks
// ship degraded (never poisoned) and the rejection counter records it.
func TestChaosCorruptAnchorsRejected(t *testing.T) {
	const frames = testGOP
	provider, store := contentOracle(t, frames)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	corrupting := &faults.FlakyEnhancer{Inner: local, Inj: faults.MustInjector(3, faults.Config{CorruptRate: 1})}
	srv, err := NewServer("127.0.0.1:0", corrupting, ServerConfig{AnchorFraction: 0.15, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	streamer, err := NewStreamer(srv.Addr(), 5, testHello())
	if err != nil {
		t.Fatal(err)
	}
	defer streamer.Close()
	hr := store.get(5)
	if _, err := streamer.SendChunk(lrFromHR(t, hr)); err != nil {
		t.Fatal(err)
	}
	sc := srv.Counters()
	if sc.AnchorsRejected == 0 || sc.AnchorsEnhanced != 0 {
		t.Errorf("validation let corrupt anchors through: %+v", sc)
	}
	requireAnchorLedger(t, sc)
	if n := srv.Store().DegradedCount(5); n != 1 {
		t.Errorf("degraded chunks = %d, want 1", n)
	}
	httpSrv := httptest.NewServer(srv.DistributionHandler())
	defer httpSrv.Close()
	got, base := chunkPSNRs(t, NewViewer(httpSrv.URL), 5, 0, hr)
	if got < base-bilinearFloorTolerance {
		t.Errorf("degraded chunk %.2f dB below the bilinear floor %.2f dB", got, base)
	}
}

// TestRemoteEnhancerReconnectsThroughFaultyConn drives the net.Conn
// fault boundary: the client's wire connection dies (gate), calls fail
// with the typed ErrEnhancerUnavailable, and the next call after revival
// transparently redials.
func TestRemoteEnhancerReconnectsThroughFaultyConn(t *testing.T) {
	provider, _ := contentOracle(t, 4)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	enhSrv, err := NewEnhancerServer("127.0.0.1:0", local, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	defer enhSrv.Close()

	remote, err := DialEnhancerTimeout(enhSrv.Addr(), time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if err := remote.Register(8, testHello()); err != nil {
		t.Fatal(err)
	}

	// Reroute future dials through a gated fault conn and sever the
	// current connection, simulating the transport dying under the client.
	gate := &faults.Gate{}
	inj := faults.MustInjector(4, faults.Config{})
	remote.mu.Lock()
	inner := remote.dial
	remote.dial = func() (net.Conn, error) {
		c, err := inner()
		if err != nil {
			return nil, err
		}
		return faults.WrapConn(c, inj, gate), nil
	}
	_ = remote.mux.Close()
	remote.mu.Unlock()

	gate.Kill()
	if err := remote.Ping(); !errors.Is(err, ErrEnhancerUnavailable) {
		t.Fatalf("ping over dead transport: %v, want ErrEnhancerUnavailable", err)
	}
	gate.Revive()
	if err := remote.Ping(); err != nil {
		t.Fatalf("ping after revival: %v", err)
	}
	// Registration is idempotent server-side, so registering the stream
	// again on the new connection succeeds too.
	if err := remote.Register(8, testHello()); err != nil {
		t.Fatalf("re-register after reconnect: %v", err)
	}
}

// TestRemoteEnhancerRestartRegistersOnDemand: the enhancer process behind
// an origin's bare RemoteEnhancer restarts between two chunks, with no
// streams. Nothing replays the hello; the next chunk's anchors come back
// ErrUnknownStream, the origin registers the stream from its hello and
// runs them again, and the chunk ships whole, byte-identical to a serial
// origin's.
func TestRemoteEnhancerRestartRegistersOnDemand(t *testing.T) {
	const chunks = 3
	serial := runStream(t, ServerConfig{AnchorFraction: 0.15, MaxInFlightAnchors: -1, PipelineDepth: -1},
		chunks, false, fourReplicaPool, nil)
	var provider ModelProvider
	var enhSrv *EnhancerServer
	start := func(addr string) {
		local, err := NewLocalEnhancer(provider)
		if err != nil {
			t.Fatal(err)
		}
		if enhSrv, err = NewEnhancerServer(addr, local, func(string, ...any) {}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { enhSrv.Close() })
	got := runStream(t, ServerConfig{AnchorFraction: 0.15}, chunks, false,
		func(t *testing.T, p ModelProvider) AnchorEnhancer {
			provider = p
			start("127.0.0.1:0")
			remote, err := DialEnhancerTimeout(enhSrv.Addr(), time.Second, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			return remote
		}, func(chunk int) {
			if chunk == chunks-1 {
				addr := enhSrv.Addr()
				if err := enhSrv.Close(); err != nil {
					t.Fatal(err)
				}
				start(addr) // a fresh process: an empty LocalEnhancer
			}
		})
	requireIdenticalRuns(t, serial, got, "enhancer restart")
	for seq, deg := range got.degraded {
		if deg {
			t.Errorf("chunk %d shipped degraded", seq)
		}
	}
}
