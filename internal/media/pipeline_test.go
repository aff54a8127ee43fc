package media

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/faults"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// pipelineRun is the observable output of one full stream run: the
// stored container bytes and degraded flags per chunk, which the
// determinism contract says must not depend on concurrency knobs.
type pipelineRun struct {
	containers [][]byte
	degraded   []bool
}

// runStream pushes `chunks` GOP-aligned chunks through a fresh server
// built over the given enhancer factory and returns the stored output.
// The enhancer factory runs once per call so every run starts from
// identical fault-injector and breaker state.
func runStream(t *testing.T, cfg ServerConfig, chunks int, async bool,
	makeEnhancer func(t *testing.T, provider ModelProvider) AnchorEnhancer,
	between func(chunk int)) pipelineRun {
	t.Helper()
	const streamID = 77
	frames := chunks * testGOP
	provider, store := contentOracle(t, frames)
	enh := makeEnhancer(t, provider)
	if c, ok := enh.(interface{ Close() error }); ok {
		defer c.Close()
	}
	cfg.Logf = func(string, ...any) {}
	srv, err := NewServer("127.0.0.1:0", enh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	streamer, err := NewStreamer(srv.Addr(), streamID, testHello())
	if err != nil {
		t.Fatal(err)
	}
	defer streamer.Close()
	lr := lrFromHR(t, store.get(streamID))
	var pending []*PendingAck
	for i := 0; i < chunks; i++ {
		if between != nil {
			between(i)
		}
		chunkFrames := lr[i*testGOP : (i+1)*testGOP]
		if async {
			p, err := streamer.SendChunkAsync(chunkFrames)
			if err != nil {
				t.Fatalf("chunk %d: %v", i, err)
			}
			pending = append(pending, p)
		} else if _, err := streamer.SendChunk(chunkFrames); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	if async {
		if err := streamer.Flush(); err != nil {
			t.Fatal(err)
		}
		for i, p := range pending {
			if seq, err := p.Wait(); err != nil || seq != i {
				t.Fatalf("async ack %d: seq=%d err=%v", i, seq, err)
			}
		}
	}
	out := pipelineRun{}
	for seq := 0; seq < chunks; seq++ {
		data, err := srv.Store().Chunk(streamID, seq)
		if err != nil {
			t.Fatalf("chunk %d missing: %v", seq, err)
		}
		_, deg, _, err := srv.Store().ChunkState(streamID, seq)
		if err != nil {
			t.Fatal(err)
		}
		out.containers = append(out.containers, data)
		out.degraded = append(out.degraded, deg)
	}
	requireLedgerClosed(t, enh)
	return out
}

func fourReplicaPool(t *testing.T, provider ModelProvider) AnchorEnhancer {
	return replicaPool(4)(t, provider)
}

// replicaPool is a runStream enhancer factory: n healthy in-process
// replicas r0..r(n-1) behind one pool.
func replicaPool(n int) func(*testing.T, ModelProvider) AnchorEnhancer {
	return func(t *testing.T, provider ModelProvider) AnchorEnhancer {
		t.Helper()
		local, err := NewLocalEnhancer(provider)
		if err != nil {
			t.Fatal(err)
		}
		replicas := make([]Replica, n)
		for i := range replicas {
			replicas[i] = StaticReplica(fmt.Sprintf("r%d", i), local)
		}
		pool, err := NewEnhancerPool(replicas, chaosPoolConfig())
		if err != nil {
			t.Fatal(err)
		}
		return pool
	}
}

// requireLedgerClosed asserts the placement ledger's invariant: with no
// call in flight, every replica's outstanding work reads 0. Enhancers
// that are not pools have no ledger and pass.
func requireLedgerClosed(t testing.TB, enh AnchorEnhancer) {
	t.Helper()
	p, ok := enh.(*EnhancerPool)
	if !ok {
		return
	}
	for _, st := range p.ReplicaStats() {
		if st.Outstanding != 0 {
			t.Errorf("replica %s: ledger reads %d at quiescence, want 0", st.ID, st.Outstanding)
		}
	}
}

// requireAnchorLedger checks the anchor conservation law serverCounters
// states: at quiescence (no chunk in flight) every selected anchor has
// landed in exactly one outcome counter, whatever the faults or the
// overload did — so an anchor booked twice shows up as surely as one
// booked nowhere.
func requireAnchorLedger(t testing.TB, c ServerCounters) {
	t.Helper()
	accounted := c.AnchorsEnhanced + c.AnchorsDropped + c.AnchorsRejected + c.AnchorsExpired
	if c.AnchorsSelected != accounted {
		t.Errorf("anchor ledger broken: selected %d, accounted %d (enhanced %d dropped %d rejected %d expired %d)",
			c.AnchorsSelected, accounted, c.AnchorsEnhanced, c.AnchorsDropped, c.AnchorsRejected, c.AnchorsExpired)
	}
}

func requireIdenticalRuns(t *testing.T, want, got pipelineRun, label string) {
	t.Helper()
	if len(got.containers) != len(want.containers) {
		t.Fatalf("%s: %d chunks, want %d", label, len(got.containers), len(want.containers))
	}
	for i := range want.containers {
		if !bytes.Equal(want.containers[i], got.containers[i]) {
			t.Errorf("%s: chunk %d container bytes differ from serial reference", label, i)
		}
		if want.degraded[i] != got.degraded[i] {
			t.Errorf("%s: chunk %d degraded=%v, reference %v", label, i, got.degraded[i], want.degraded[i])
		}
	}
}

// TestPipelinedOutputByteIdentical is the determinism contract: the
// concurrent fan-out and overlapped stages must produce byte-identical
// containers (and identical degraded flags) for any in-flight limit and
// pipeline depth, including fully pipelined async uploads.
func TestPipelinedOutputByteIdentical(t *testing.T) {
	const chunks = 3
	serial := runStream(t, ServerConfig{AnchorFraction: 0.15, MaxInFlightAnchors: -1, PipelineDepth: -1},
		chunks, false, fourReplicaPool, nil)
	for _, deg := range serial.degraded {
		if deg {
			t.Fatal("healthy serial run produced a degraded chunk")
		}
	}
	cases := []struct {
		name  string
		cfg   ServerConfig
		async bool
	}{
		{"inflight-2", ServerConfig{AnchorFraction: 0.15, MaxInFlightAnchors: 2, PipelineDepth: -1}, false},
		{"inflight-8", ServerConfig{AnchorFraction: 0.15, MaxInFlightAnchors: 8, PipelineDepth: -1}, false},
		{"inflight-8-depth-4-async", ServerConfig{AnchorFraction: 0.15, MaxInFlightAnchors: 8, PipelineDepth: 4}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runStream(t, tc.cfg, chunks, tc.async, fourReplicaPool, nil)
			requireIdenticalRuns(t, serial, got, tc.name)
		})
	}
}

// TestPipelinedDeterministicUnderFaults repeats the byte-identity check
// under seeded fault injection. Only order-independent fault shapes are
// eligible (the injector's draw sequence is consumed in completion
// order under concurrency): a gate kill spanning whole chunks, rate-1.0
// corruption, and rate-1.0 errors behave identically for every anchor
// regardless of scheduling.
func TestPipelinedDeterministicUnderFaults(t *testing.T) {
	const chunks = 3
	cases := []struct {
		name         string
		makeEnhancer func(t *testing.T, provider ModelProvider) AnchorEnhancer
		between      func(gate *faults.Gate) func(int)
		wantDegraded []bool
	}{
		{
			name:         "gate-kill-from-chunk-1",
			makeEnhancer: nil, // filled below per gate
			between: func(gate *faults.Gate) func(int) {
				return func(chunk int) {
					if chunk == 1 {
						gate.Kill()
					}
				}
			},
			wantDegraded: []bool{false, true, true},
		},
		{
			name: "corrupt-rate-1",
			makeEnhancer: func(t *testing.T, provider ModelProvider) AnchorEnhancer {
				local, err := NewLocalEnhancer(provider)
				if err != nil {
					t.Fatal(err)
				}
				pool, err := NewEnhancerPool([]Replica{
					StaticReplica("c0", &faults.FlakyEnhancer{Inner: local, Inj: faults.MustInjector(5, faults.Config{CorruptRate: 1})}),
					StaticReplica("c1", &faults.FlakyEnhancer{Inner: local, Inj: faults.MustInjector(6, faults.Config{CorruptRate: 1})}),
				}, chaosPoolConfig())
				if err != nil {
					t.Fatal(err)
				}
				return pool
			},
			wantDegraded: []bool{true, true, true},
		},
		{
			name: "error-rate-1",
			makeEnhancer: func(t *testing.T, provider ModelProvider) AnchorEnhancer {
				local, err := NewLocalEnhancer(provider)
				if err != nil {
					t.Fatal(err)
				}
				pool, err := NewEnhancerPool([]Replica{
					StaticReplica("e0", &faults.FlakyEnhancer{Inner: local, Inj: faults.MustInjector(8, faults.Config{ErrorRate: 1})}),
				}, chaosPoolConfig())
				if err != nil {
					t.Fatal(err)
				}
				return pool
			},
			wantDegraded: []bool{true, true, true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(cfg ServerConfig) pipelineRun {
				// Fresh gate per run so the kill schedule restarts.
				var between func(int)
				makeEnhancer := tc.makeEnhancer
				if tc.between != nil {
					gate := &faults.Gate{}
					between = tc.between(gate)
					makeEnhancer = func(t *testing.T, provider ModelProvider) AnchorEnhancer {
						local, err := NewLocalEnhancer(provider)
						if err != nil {
							t.Fatal(err)
						}
						flaky := &faults.FlakyEnhancer{Inner: local, Inj: faults.MustInjector(1, faults.Config{}), Gate: gate}
						pool, err := NewEnhancerPool([]Replica{StaticReplica("solo", flaky)}, chaosPoolConfig())
						if err != nil {
							t.Fatal(err)
						}
						return pool
					}
				}
				return runStream(t, cfg, chunks, false, makeEnhancer, between)
			}
			serial := run(ServerConfig{AnchorFraction: 0.15, MaxInFlightAnchors: -1, PipelineDepth: -1})
			for i, want := range tc.wantDegraded {
				if serial.degraded[i] != want {
					t.Fatalf("serial run chunk %d degraded=%v, want %v", i, serial.degraded[i], want)
				}
			}
			for _, inFlight := range []int{2, 8} {
				got := run(ServerConfig{AnchorFraction: 0.15, MaxInFlightAnchors: inFlight, PipelineDepth: -1})
				requireIdenticalRuns(t, serial, got, tc.name)
			}
		})
	}
}

// TestStreamerAsyncAcksInOrder pipelines several uploads and verifies
// the FIFO ack matching hands each handle its own sequence number.
func TestStreamerAsyncAcksInOrder(t *testing.T) {
	const chunks = 4
	frames := chunks * testGOP
	provider, store := contentOracle(t, frames)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", local, ServerConfig{AnchorFraction: 0.15, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	streamer, err := NewStreamer(srv.Addr(), 12, testHello())
	if err != nil {
		t.Fatal(err)
	}
	defer streamer.Close()
	lr := lrFromHR(t, store.get(12))
	var pending []*PendingAck
	for i := 0; i < chunks; i++ {
		p, err := streamer.SendChunkAsync(lr[i*testGOP : (i+1)*testGOP])
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		pending = append(pending, p)
	}
	if err := streamer.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flush implies every ack is already buffered; Wait in reverse order
	// to prove handles are independent of collection order.
	for i := chunks - 1; i >= 0; i-- {
		seq, err := pending[i].Wait()
		if err != nil || seq != i {
			t.Errorf("ack %d: seq=%d err=%v", i, seq, err)
		}
	}
	if n := srv.Store().ChunkCount(12); n != chunks {
		t.Errorf("stored %d chunks, want %d", n, chunks)
	}
	// Flush with nothing outstanding is a no-op.
	if err := streamer.Flush(); err != nil {
		t.Error(err)
	}
}

// TestRemoteEnhancerMultiplexesConcurrentCalls drives many overlapping
// RPCs through one Seq-demultiplexed connection and checks every reply
// lands on its own call, byte-identical to the serial answers.
func TestRemoteEnhancerMultiplexesConcurrentCalls(t *testing.T) {
	const frames = testGOP
	provider, store := contentOracle(t, frames)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	enhSrv, err := NewEnhancerServerWith("127.0.0.1:0", local, EnhancerServerConfig{
		MaxConcurrentJobs: 4, Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer enhSrv.Close()
	remote, err := DialEnhancer(enhSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if err := remote.Register(31, testHello()); err != nil {
		t.Fatal(err)
	}
	lr := lrFromHR(t, store.get(31))

	job := func(i int) wire.AnchorJob {
		return wire.AnchorJob{Packet: i, DisplayIndex: i, QP: 90, Frame: lr[i]}
	}
	// Serial reference answers.
	want := make([]wire.AnchorResult, frames)
	for i := 0; i < frames; i++ {
		res, err := remote.Enhance(31, job(i))
		if err != nil {
			t.Fatalf("serial enhance %d: %v", i, err)
		}
		want[i] = res
	}
	// The same jobs, all in flight at once.
	got := make([]wire.AnchorResult, frames)
	errs := make([]error, frames)
	var wg sync.WaitGroup
	for i := 0; i < frames; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = remote.Enhance(31, job(i))
		}(i)
	}
	wg.Wait()
	for i := 0; i < frames; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent enhance %d: %v", i, errs[i])
		}
		if got[i].Packet != i {
			t.Errorf("call %d got packet %d: replies crossed", i, got[i].Packet)
		}
		if !bytes.Equal(got[i].Encoded, want[i].Encoded) {
			t.Errorf("call %d payload differs from serial reference", i)
		}
	}
}

// TestChunkStoreRetentionEviction exercises the sliding retention
// window directly on the store.
func TestChunkStoreRetentionEviction(t *testing.T) {
	s := NewChunkStoreRetention(3)
	for i := 0; i < 5; i++ {
		if seq := s.AppendChunk(1, []byte{byte('a' + i)}, i == 0); seq != i {
			t.Fatalf("append %d: seq = %d", i, seq)
		}
	}
	if n := s.ChunkCount(1); n != 5 {
		t.Errorf("ChunkCount = %d, want 5 (numbering never rewinds)", n)
	}
	if n := s.EvictedCount(1); n != 2 {
		t.Errorf("EvictedCount = %d, want 2", n)
	}
	if n := s.OldestRetained(1); n != 2 {
		t.Errorf("OldestRetained = %d, want 2", n)
	}
	if n := s.TotalEvicted(); n != 2 {
		t.Errorf("TotalEvicted = %d, want 2", n)
	}
	// The degraded running count includes the evicted chunk 0.
	if n := s.DegradedCount(1); n != 1 {
		t.Errorf("DegradedCount = %d, want 1", n)
	}
	if _, err := s.Chunk(1, 0); err == nil || !strings.Contains(err.Error(), "evicted") {
		t.Errorf("evicted chunk lookup: %v, want eviction error", err)
	}
	if _, err := s.Chunk(1, 9); err == nil || strings.Contains(err.Error(), "evicted") {
		t.Errorf("out-of-range lookup: %v, want plain missing error", err)
	}
	for i := 2; i < 5; i++ {
		got, err := s.Chunk(1, i)
		if err != nil || string(got) != string(byte('a'+i)) {
			t.Errorf("Chunk(1,%d) = %q, %v", i, got, err)
		}
	}
	// Unbounded stores never evict.
	u := NewChunkStoreRetention(0)
	for i := 0; i < 2000; i++ {
		u.AppendChunk(2, []byte{1}, false)
	}
	if u.EvictedCount(2) != 0 || u.OldestRetained(2) != 0 {
		t.Error("unbounded store evicted")
	}
}

// TestServerRetentionAndStageStats runs chunks through a
// retention-capped server and checks both the eviction behaviour on the
// distribution side and the pipeline stage accounting in GET /metrics.
func TestServerRetentionAndStageStats(t *testing.T) {
	const chunks = 4
	frames := chunks * testGOP
	provider, store := contentOracle(t, frames)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", local, ServerConfig{
		AnchorFraction: 0.15, ChunkRetention: 2, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	streamer, err := NewStreamer(srv.Addr(), 21, testHello())
	if err != nil {
		t.Fatal(err)
	}
	defer streamer.Close()
	lr := lrFromHR(t, store.get(21))
	for i := 0; i < chunks; i++ {
		if _, err := streamer.SendChunk(lr[i*testGOP : (i+1)*testGOP]); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}

	httpSrv := httptest.NewServer(srv.DistributionHandler())
	defer httpSrv.Close()
	viewer := NewViewer(httpSrv.URL)
	if _, err := viewer.FetchChunk(21, 0); err == nil {
		t.Error("evicted chunk still served")
	}
	if _, err := viewer.FetchChunk(21, chunks-1); err != nil {
		t.Errorf("latest chunk unavailable: %v", err)
	}
	infos, err := viewer.Streams()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Chunks != chunks || infos[0].EvictedChunks != 2 {
		t.Errorf("stream infos = %+v", infos)
	}

	ss := srv.StageStats()
	if ss.Chunks != chunks {
		t.Errorf("stage chunk count = %d, want %d", ss.Chunks, chunks)
	}
	if ss.DecodeMsTotal <= 0 || ss.SelectMsTotal < 0 || ss.EnhanceWaitMsTotal <= 0 || ss.PackageMsTotal <= 0 {
		t.Errorf("stage latency totals = %+v", ss)
	}
	// Every stage runs once per chunk on this quiet single-stream server,
	// so the per-stage counts divide the totals into honest averages.
	if ss.DecodeCount != chunks || ss.SelectCount != chunks || ss.EnhanceWaitCount != chunks || ss.PackageCount != chunks {
		t.Errorf("stage counts = %+v, want %d each", ss, chunks)
	}
	if ss.AnchorsInFlight != 0 {
		t.Errorf("anchors in flight at rest = %d", ss.AnchorsInFlight)
	}

	// /metrics serves the same accounting: the server is at rest, so the
	// text must carry exactly the snapshot's figures.
	text := getMetrics(t, httpSrv.URL)
	for _, want := range []string{
		fmt.Sprintf("neuroscaler_chunks_processed_total %d\n", chunks),
		"neuroscaler_store_chunks_evicted_total 2\n",
		"neuroscaler_anchors_in_flight 0\n",
		fmt.Sprintf("neuroscaler_stage_seconds_total{stage=\"decode\"} %g\n", ss.DecodeMsTotal/1e3),
		fmt.Sprintf("neuroscaler_stage_seconds_total{stage=\"select\"} %g\n", ss.SelectMsTotal/1e3),
		fmt.Sprintf("neuroscaler_stage_seconds_total{stage=\"enhance_wait\"} %g\n", ss.EnhanceWaitMsTotal/1e3),
		fmt.Sprintf("neuroscaler_stage_seconds_total{stage=\"package\"} %g\n", ss.PackageMsTotal/1e3),
		fmt.Sprintf("neuroscaler_stage_runs_total{stage=\"decode\"} %d\n", chunks),
		fmt.Sprintf("neuroscaler_stage_runs_total{stage=\"select\"} %d\n", chunks),
		fmt.Sprintf("neuroscaler_stage_runs_total{stage=\"enhance_wait\"} %d\n", chunks),
		fmt.Sprintf("neuroscaler_stage_runs_total{stage=\"package\"} %d\n", chunks),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// peakEnhancer fails its first call the way a dead transport would, then
// serves slowly enough for calls to meet, and records how many were ever
// inside it together.
type peakEnhancer struct {
	inner            *LocalEnhancer
	calls, cur, peak atomic.Int32
}

func (e *peakEnhancer) Register(id uint32, h wire.Hello) error { return e.inner.Register(id, h) }

func (e *peakEnhancer) Enhance(id uint32, job wire.AnchorJob) (wire.AnchorResult, error) {
	n := e.cur.Add(1)
	defer e.cur.Add(-1)
	for p := e.peak.Load(); n > p && !e.peak.CompareAndSwap(p, n); p = e.peak.Load() {
	}
	if e.calls.Add(1) == 1 {
		return wire.AnchorResult{}, fmt.Errorf("scripted outage: %w", ErrEnhancerUnavailable)
	}
	time.Sleep(20 * time.Millisecond)
	return e.inner.Enhance(id, job)
}

// TestRescuePassHoldsInFlightBound: the package stage's retry of a
// transport-failed anchor goes through the same slot-holding dispatch as
// the first attempt. With MaxInFlightAnchors 1 and a second chunk's
// anchors already queued for the slot, the rescue of chunk 0 must wait its
// turn: the enhancer never sees two calls at once, both chunks still ship
// whole, and the pool's ledger closes.
func TestRescuePassHoldsInFlightBound(t *testing.T) {
	var enh *peakEnhancer
	run := runStream(t, ServerConfig{AnchorFraction: 0.15, MaxInFlightAnchors: 1}, 2, true,
		func(t *testing.T, provider ModelProvider) AnchorEnhancer {
			local, err := NewLocalEnhancer(provider)
			if err != nil {
				t.Fatal(err)
			}
			enh = &peakEnhancer{inner: local}
			cfg := chaosPoolConfig()
			cfg.MaxRetries = -1 // one attempt: the outage reaches the server's rescue pass
			cfg.BreakerThreshold = 1 << 30
			pool, err := NewEnhancerPool([]Replica{StaticReplica("solo", enh)}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return pool
		}, nil)
	if peak := enh.peak.Load(); peak != 1 {
		t.Errorf("enhancer saw %d calls at once under MaxInFlightAnchors 1", peak)
	}
	// The replica learns the stream from its first job after the outage:
	// that job comes back ErrUnknownStream and runs once more.
	if calls := enh.calls.Load(); calls != 6 {
		t.Errorf("enhancer saw %d calls, want 6 (4 anchors + 1 rescue + 1 run after registration)", calls)
	}
	for seq, deg := range run.degraded {
		if deg {
			t.Errorf("chunk %d shipped degraded; the rescue should have landed its anchor", seq)
		}
	}
}
