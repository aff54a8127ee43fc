package media

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/hybrid"
	"github.com/neuroscaler/neuroscaler/internal/icodec"
	"github.com/neuroscaler/neuroscaler/internal/par"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// TestLocalEnhanceAllocs guards the live anchor path's memory: once warm,
// LocalEnhancer.Enhance plus the release of the coded anchor it returns
// allocates at most 2 KB, at the anchor quality the origin picks for
// anchor fraction 0.15 and at the top qualities 95 and 100, whose anchors
// the image encoder's reservation must hold in one buffer too. The
// super-resolved frame comes from the arena and goes back after the image
// encode, and the coded anchor is coded into a buffer from codedAnchors,
// so no per-anchor HR frame, coded bytes, filter taps, quantizer or noise
// generator reach the heap.
func TestLocalEnhanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	const streamID, runs = 7, 50
	provider, store := contentOracle(t, 2)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	if err := local.Register(streamID, testHello()); err != nil {
		t.Fatal(err)
	}
	lr := lrFromHR(t, store.get(streamID))
	qp, err := hybrid.QPForFraction(0.15)
	if err != nil {
		t.Fatal(err)
	}
	old := par.Workers()
	defer par.SetWorkers(old)
	for _, q := range []int{qp, 95, 100} {
		job := wire.AnchorJob{Packet: 1, DisplayIndex: 1, QP: q, Frame: lr[1]}
		coded := 0
		enhance := func() {
			res, err := local.Enhance(streamID, job)
			if err != nil {
				t.Fatal(err)
			}
			coded = len(res.Encoded)
			codedAnchors.Put(res.Encoded)
		}
		for _, workers := range []int{1, 2} {
			par.SetWorkers(workers)
			perAnchor := allocBytesPerRun(runs, enhance)
			t.Logf("workers %d QP %d: %.0f B per anchor, %d B coded", workers, q, perAnchor, coded)
			if perAnchor > 2048 {
				t.Errorf("workers %d QP %d: warm Enhance and release allocate %.0f B per anchor, want at most 2048",
					workers, q, perAnchor)
			}
		}
	}
}

// TestRemoteEnhanceAllocs guards the anchor RPC's memory: once warm, a
// two-anchor RemoteEnhancer → EnhancerServer round trip plus the release
// of its coded anchors allocates at most 2 KB across both ends. The job
// frame goes out from the frames' planes, the replica reads it into a
// pooled payload and decodes into the frame arena, its reply goes out
// from pooled coded anchors, and the origin reads that reply into a
// pooled payload and copies each anchor into a coded-anchor buffer.
func TestRemoteEnhanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	const streamID, runs = 7, 50
	provider, store := contentOracle(t, 3)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewEnhancerServer("127.0.0.1:0", local, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := DialEnhancer(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if err := remote.Register(streamID, testHello()); err != nil {
		t.Fatal(err)
	}
	lr := lrFromHR(t, store.get(streamID))
	qp, err := hybrid.QPForFraction(0.15)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []wire.AnchorJob{
		{Packet: 1, DisplayIndex: 1, QP: qp, Frame: lr[1]},
		{Packet: 2, DisplayIndex: 2, QP: qp, Frame: lr[2]},
	}
	roundTrip := func() {
		outs, err := remote.EnhanceBatch(streamID, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
			codedAnchors.Put(o.Res.Encoded)
		}
	}
	perCall := allocBytesPerRun(runs, roundTrip)
	t.Logf("%.0f B per two-anchor round trip", perCall)
	if perCall > 2048 {
		t.Errorf("warm round trip and release allocate %.0f B, want at most 2048", perCall)
	}
}

// TestEnhancerReplyHoldsCodedBuffersUntilWritten: a reply's coded anchors
// are parts of its frame, so they go back to the pool only once the write
// has returned. The reply to batch A is held mid-write (its reader has
// taken one byte) while batch B is coded from the same pool; A must still
// arrive byte for byte. Were A's buffers back in the pool early, B's
// anchors would be coded over them — on one P the pool hands them out
// next.
func TestEnhancerReplyHoldsCodedBuffersUntilWritten(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const streamID = 7
	provider, store := contentOracle(t, 4)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	if err := local.Register(streamID, testHello()); err != nil {
		t.Fatal(err)
	}
	lr := lrFromHR(t, store.get(streamID))
	qp, err := hybrid.QPForFraction(0.15)
	if err != nil {
		t.Fatal(err)
	}
	entry := func(seq uint32, frames ...int) (*jobEntry, []byte) {
		e := &jobEntry{msg: wire.Message{Type: wire.TypeAnchorBatchJob, StreamID: streamID, Seq: seq}}
		var want []AnchorOutcome
		for _, i := range frames {
			job := wire.AnchorJob{Packet: i, DisplayIndex: i, QP: qp, Frame: lr[i]}
			e.batch = append(e.batch, job)
			res, err := local.Enhance(streamID, job)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, AnchorOutcome{Res: res})
		}
		var v wire.Vec
		v.PutAnchorBatchResult(want)
		return e, bytes.Join(v.Parts(), nil)
	}
	entryA, wantA := entry(1, 0, 1)
	entryB, wantB := entry(2, 2, 3)
	s := &EnhancerServer{enhancer: local, cfg: EnhancerServerConfig{Logf: t.Logf}}
	var a, b batchReply
	s.runBatch(entryA, &a)

	srvSide, cliSide := net.Pipe()
	defer cliSide.Close()
	conn := wire.NewConn(srvSide, 0, 0)
	defer conn.Close()
	errc := make(chan error, 1)
	go func() { errc <- s.sendReply(conn, &a) }()
	_ = cliSide.SetReadDeadline(time.Now().Add(10 * time.Second))
	first := make([]byte, 1)
	if _, err := io.ReadFull(cliSide, first); err != nil {
		t.Fatal(err)
	}
	// A's write has begun and cannot finish until the read below.
	s.runBatch(entryB, &b)
	gotA, err := wire.Read(io.MultiReader(bytes.NewReader(first), cliSide), wire.DefaultMaxPayload)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if gotA.Seq != 1 || !bytes.Equal(gotA.Payload, wantA) {
		t.Fatal("reply A changed while it was being written: its coded anchors went back to the pool before the write")
	}
	go func() { errc <- s.sendReply(conn, &b) }()
	gotB, err := wire.Read(cliSide, wire.DefaultMaxPayload)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if gotB.Seq != 2 || !bytes.Equal(gotB.Payload, wantB) {
		t.Fatal("reply B differs from the serial encodes")
	}
}

// allocBytesPerRun is the mean heap bytes one call of f allocates, after
// one warm-up call. Like testing.AllocsPerRun it measures on one P, so a
// frame put back to the arena is the one the next Borrow finds, and the
// collector is off, so pooled buffers are not dropped mid-measurement.
func allocBytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestCodedAnchorsHeldUntilMarshal: the origin owns a chunk's coded
// anchors until the container marshal has copied them, and only then
// returns them to codedAnchors; a RemoteEnhancer's anchors are copied out
// of its reply payload before the payload goes back. Several streams'
// chunks are enhanced and assembled at once on one P, where a pool hands
// the buffer put back last to the next Get, in process and over RPC, and
// every stored container must match a serial origin's byte for byte and
// hold only anchors that parse. A buffer put back before its last read
// would carry another anchor's bytes by then, or, in a race build, the
// zeros SlabPool clears it to. At quiescence every coded anchor taken
// from the pool is back.
func TestCodedAnchorsHeldUntilMarshal(t *testing.T) {
	const streams, chunks = 3, 4
	provider, store := contentOracle(t, chunks*testGOP)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	run := func(enh AnchorEnhancer, cfg ServerConfig, concurrent bool) [][][]byte {
		t.Helper()
		cfg.AnchorFraction = 0.15
		cfg.Logf = t.Logf
		srv, err := NewServer("127.0.0.1:0", enh, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		send := func(id uint32) error {
			streamer, err := NewStreamer(srv.Addr(), id, testHello())
			if err != nil {
				return err
			}
			defer streamer.Close()
			lr := lrFromHR(t, store.get(id))
			var acks []*PendingAck
			for c := 0; c < chunks; c++ {
				p, err := streamer.SendChunkAsync(lr[c*testGOP : (c+1)*testGOP])
				if err != nil {
					return err
				}
				acks = append(acks, p)
			}
			if err := streamer.Flush(); err != nil {
				return err
			}
			for _, p := range acks {
				if _, err := p.Wait(); err != nil {
					return err
				}
			}
			return nil
		}
		errs := make(chan error, streams)
		var wg sync.WaitGroup
		for id := uint32(1); id <= streams; id++ {
			if !concurrent {
				errs <- send(id)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- send(id)
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		requireAnchorLedger(t, srv.Counters())
		out := make([][][]byte, streams)
		for id := uint32(1); id <= streams; id++ {
			for seq := 0; seq < chunks; seq++ {
				data, degraded, _, err := srv.Store().ChunkState(id, seq)
				if err != nil {
					t.Fatal(err)
				}
				if degraded {
					t.Errorf("stream %d chunk %d degraded: an anchor was lost or corrupted", id, seq)
				}
				// The serial origin runs the same assembly, so each anchor is
				// also checked on its own: one put back before the marshal in
				// both runs must not pass as a match.
				var c hybrid.Container
				if err := c.UnmarshalBinary(data); err != nil {
					t.Fatal(err)
				}
				for i, f := range c.Frames {
					if f.Anchor == nil {
						continue
					}
					if _, _, err := icodec.Validate(f.Anchor); err != nil {
						t.Errorf("stream %d chunk %d frame %d: stored anchor is corrupt: %v", id, seq, i, err)
					}
				}
				out[id-1] = append(out[id-1], data)
			}
		}
		return out
	}
	serial := run(local, ServerConfig{MaxInFlightAnchors: -1, PipelineDepth: -1}, false)

	replica, err := NewEnhancerServer("127.0.0.1:0", local, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	remote, err := DialEnhancer(replica.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name string
		enh  AnchorEnhancer
	}{{"in-process", local}, {"rpc", remote}} {
		before := codedAnchors.Outstanding()
		got := run(tc.enh, ServerConfig{MaxInFlightAnchors: 8, MaxAnchorBatch: 1, PipelineDepth: 4}, true)
		for s := range serial {
			for seq := range serial[s] {
				if !bytes.Equal(got[s][seq], serial[s][seq]) {
					t.Errorf("%s: stream %d chunk %d: container differs from the serial origin's", tc.name, s+1, seq)
				}
			}
		}
		if after := codedAnchors.Outstanding(); after != before {
			t.Errorf("%s: %d coded anchors outstanding at quiescence, want %d", tc.name, after, before)
		}
	}
}
