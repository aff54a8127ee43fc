package media

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/hybrid"
	"github.com/neuroscaler/neuroscaler/internal/par"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// TestLocalEnhanceAllocs guards the live anchor path's memory: once warm,
// LocalEnhancer.Enhance allocates at most the coded anchor it returns
// (the capacity of its buffer) plus 2 KB, at the anchor quality the
// origin picks for anchor fraction 0.15 and at the top qualities 95 and
// 100, whose anchors the image encoder's reservation must hold in one
// allocation too. The super-resolved frame comes from the arena and goes
// back after the image encode, so no per-anchor HR frame, filter taps,
// quantizer or noise generator reach the heap.
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
			coded = cap(res.Encoded)
		}
		for _, workers := range []int{1, 2} {
			par.SetWorkers(workers)
			perAnchor := allocBytesPerRun(runs, enhance)
			t.Logf("workers %d QP %d: %.0f B per anchor, %d B coded", workers, q, perAnchor, coded)
			if perAnchor > float64(coded+2048) {
				t.Errorf("workers %d QP %d: warm Enhance allocates %.0f B per anchor, want at most the %d B coded + 2048",
					workers, q, perAnchor, coded)
			}
		}
	}
}

// TestRemoteEnhanceAllocs guards the anchor RPC's memory: once warm, a
// two-anchor RemoteEnhancer → EnhancerServer round trip allocates, across
// both ends, at most the reply payload the origin reads (its outcomes
// alias it) plus 2 KB. The job frame goes out from the frames' planes,
// the replica reads it into a pooled payload and decodes into the frame
// arena, and its reply goes out from pooled coded anchors.
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
	reply := 0
	roundTrip := func() {
		outs, err := remote.EnhanceBatch(streamID, jobs)
		if err != nil {
			t.Fatal(err)
		}
		reply = 4
		for _, o := range outs {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
			reply += 4 + 2 + 4 + len(o.Res.Encoded)
		}
	}
	perCall := allocBytesPerRun(runs, roundTrip)
	// What the reply payload itself costs the heap: its length rounded up
	// to the allocator's size class.
	payload := allocBytesPerRun(runs, func() { allocSink = make([]byte, reply) })
	t.Logf("%.0f B per two-anchor round trip, %.0f B of it the %d B reply payload", perCall, payload, reply)
	if perCall > payload+2048 {
		t.Errorf("warm round trip allocates %.0f B, want at most the reply payload's %.0f B + 2048", perCall, payload)
	}
}

// allocSink keeps a measured allocation on the heap.
var allocSink []byte

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
		return e, wire.EncodeAnchorBatchResult(want)
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
