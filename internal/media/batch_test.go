package media

import (
	"fmt"
	"testing"

	"github.com/neuroscaler/neuroscaler/internal/faults"
	"github.com/neuroscaler/neuroscaler/internal/hybrid"
)

// TestBatchedOutputByteIdentical extends the determinism contract to the
// coalesced dispatch path: for every batch size, in-flight bound and pool
// size, the stored containers must be byte-identical to the serial
// per-anchor reference. Batch 1 degenerates to the per-anchor path by
// construction; larger batches must not change output bytes either, only
// round trips; and the pool size decides how placement splits a batch
// (a chunk's two anchors whole on 1 replica, one each from 2 up), which
// must not show in the bytes.
func TestBatchedOutputByteIdentical(t *testing.T) {
	const chunks = 3
	serial := runStream(t, ServerConfig{
		AnchorFraction: 0.15, MaxInFlightAnchors: -1, MaxAnchorBatch: -1, PipelineDepth: -1,
	}, chunks, false, fourReplicaPool, nil)
	for _, deg := range serial.degraded {
		if deg {
			t.Fatal("healthy serial run produced a degraded chunk")
		}
	}
	for _, replicas := range []int{1, 2, 3, 4} {
		for _, batch := range []int{1, 2, 8} {
			for _, inFlight := range []int{1, 4} {
				name := fmt.Sprintf("replicas-%d-batch-%d-inflight-%d", replicas, batch, inFlight)
				t.Run(name, func(t *testing.T) {
					got := runStream(t, ServerConfig{
						AnchorFraction:     0.15,
						MaxInFlightAnchors: inFlight,
						MaxAnchorBatch:     batch,
						PipelineDepth:      -1,
					}, chunks, false, replicaPool(replicas), nil)
					requireIdenticalRuns(t, serial, got, name)
				})
			}
		}
	}
}

// TestBatchMidChaosDegradesOnlyAffectedAnchors injects a seeded corrupt
// fault into the middle of a coalesced dispatch and verifies the blast
// radius stays per-anchor: the hit anchor is rejected by validation and
// dropped, its batch sibling ships, and the following chunk's batch is
// untouched. Seed 11 at corrupt rate 0.5 draws [corrupt, none, none,
// none] — anchor 0 of chunk 0 is the only casualty.
func TestBatchMidChaosDegradesOnlyAffectedAnchors(t *testing.T) {
	const (
		chunks   = 2
		streamID = 55
	)
	frames := chunks * testGOP
	provider, store := contentOracle(t, frames)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	// The replica knows the stream already, so no anchor comes back
	// ErrUnknownStream and runs twice: the draws map one-to-one onto the
	// four anchors.
	if err := local.Register(streamID, testHello()); err != nil {
		t.Fatal(err)
	}
	flaky := &faults.FlakyEnhancer{
		Inner: local,
		Inj:   faults.MustInjector(11, faults.Config{CorruptRate: 0.5}),
	}
	pool, err := NewEnhancerPool([]Replica{StaticReplica("solo", flaky)}, chaosPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv, err := NewServer("127.0.0.1:0", pool, ServerConfig{
		AnchorFraction: 0.15, MaxAnchorBatch: 2, Logf: func(string, ...any) {},
	})
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
	for i := 0; i < chunks; i++ {
		if _, err := streamer.SendChunk(lr[i*testGOP : (i+1)*testGOP]); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}

	anchorsIn := func(seq int) int {
		data, err := srv.Store().Chunk(streamID, seq)
		if err != nil {
			t.Fatalf("chunk %d: %v", seq, err)
		}
		var c hybrid.Container
		if err := c.UnmarshalBinary(data); err != nil {
			t.Fatalf("chunk %d: %v", seq, err)
		}
		n := 0
		for _, f := range c.Frames {
			if len(f.Anchor) > 0 {
				n++
			}
		}
		return n
	}
	// Each 12-frame chunk selects 2 anchors, dispatched as one batch of 2.
	if n := anchorsIn(0); n != 1 {
		t.Errorf("chunk 0 shipped %d anchors, want 1 (sibling of the corrupted anchor must survive)", n)
	}
	if _, deg, _, _ := srv.Store().ChunkState(streamID, 0); !deg {
		t.Error("chunk 0 not marked degraded")
	}
	if n := anchorsIn(1); n != 2 {
		t.Errorf("chunk 1 shipped %d anchors, want 2 (fault must not leak across batches)", n)
	}
	if _, deg, _, _ := srv.Store().ChunkState(streamID, 1); deg {
		t.Error("chunk 1 marked degraded")
	}
	ctr := srv.Counters()
	if ctr.AnchorsRejected != 1 || ctr.AnchorsEnhanced != 3 || ctr.ChunksDegraded != 1 {
		t.Errorf("counters = %+v, want 1 rejected / 3 enhanced / 1 degraded chunk", ctr)
	}
	requireAnchorLedger(t, ctr)
	requireLedgerClosed(t, pool)
}
