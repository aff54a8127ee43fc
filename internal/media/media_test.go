package media

import (
	"bytes"
	"errors"
	"net"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/neuroscaler/neuroscaler/internal/bitstream"
	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/metrics"
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

// oracleStore is the synchronized ground-truth registry shared between
// the model provider and test assertions.
type oracleStore struct {
	mu     sync.Mutex
	m      map[uint32][]*frame.Frame
	frames int
}

// content returns stream id's HR frames, generating them from the content
// profile the first time the stream is asked for.
func (s *oracleStore) content(id uint32, profile string) ([]*frame.Frame, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if hr, ok := s.m[id]; ok {
		return hr, nil
	}
	p, err := synth.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	g, err := synth.NewGenerator(p, testLRW*testScale, testLRH*testScale, int64(id))
	if err != nil {
		return nil, err
	}
	s.m[id] = g.GenerateChunk(s.frames)
	return s.m[id], nil
}

// get returns stream id's ground truth. A stream no enhancer has
// registered yet (a pool's replicas learn a stream from its first job)
// gets testHello's content, as the provider would.
func (s *oracleStore) get(id uint32) []*frame.Frame {
	hr, err := s.content(id, testHello().Content)
	if err != nil {
		panic(err)
	}
	return hr
}

// contentOracle builds a ModelProvider backed by deterministic synthetic
// HR content per stream: the test analogue of "the trained DNN knows the
// content".
func contentOracle(t testing.TB, frames int) (ModelProvider, *oracleStore) {
	t.Helper()
	store := &oracleStore{m: make(map[uint32][]*frame.Frame), frames: frames}
	provider := func(streamID uint32, h wire.Hello) (sr.Model, error) {
		hr, err := store.content(streamID, h.Content)
		if err != nil {
			return nil, err
		}
		return sr.NewOracleModel(h.Model, hr)
	}
	return provider, store
}

func testHello() wire.Hello {
	return wire.Hello{
		Config: vcodec.Config{
			Width: testLRW, Height: testLRH, FPS: 30, BitrateKbps: 700,
			GOP: testGOP, Mode: vcodec.ModeConstrainedVBR,
		},
		Scale:   testScale,
		Model:   sr.HighQuality(),
		Content: "lol",
	}
}

// lrFromHR downsamples the oracle's HR frames to the ingest resolution.
func lrFromHR(t testing.TB, hr []*frame.Frame) []*frame.Frame {
	t.Helper()
	lr := make([]*frame.Frame, len(hr))
	for i, f := range hr {
		var err error
		lr[i], err = frame.Downscale(f, testScale)
		if err != nil {
			t.Fatal(err)
		}
	}
	return lr
}

func TestChunkStore(t *testing.T) {
	s := NewChunkStoreRetention(0)
	if n := s.ChunkCount(1); n != 0 {
		t.Errorf("empty store count = %d", n)
	}
	if seq := s.AppendChunk(1, []byte("a"), false); seq != 0 {
		t.Errorf("first seq = %d", seq)
	}
	if seq := s.AppendChunk(1, []byte("b"), false); seq != 1 {
		t.Errorf("second seq = %d", seq)
	}
	s.AppendChunk(7, []byte("c"), false)
	got, err := s.Chunk(1, 1)
	if err != nil || string(got) != "b" {
		t.Errorf("Chunk(1,1) = %q, %v", got, err)
	}
	if _, err := s.Chunk(2, 0); err == nil {
		t.Error("unknown stream accepted")
	}
	if _, err := s.Chunk(1, 9); err == nil {
		t.Error("out-of-range seq accepted")
	}
	if got, err := s.Chunk(7, 0); err != nil || string(got) != "c" {
		t.Errorf("Chunk(7,0) = %q, %v: streams are kept apart", got, err)
	}
}

func TestEndToEndLocalEnhancer(t *testing.T) {
	const frames = 24 // two GOPs
	provider, store := contentOracle(t, frames)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", local, ServerConfig{AnchorFraction: 0.10, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	hello := testHello()
	streamer, err := NewStreamer(srv.Addr(), 42, hello)
	if err != nil {
		t.Fatal(err)
	}
	defer streamer.Close()

	// The provider generates HR on first model resolution (at hello).
	hr := store.get(42)
	if hr == nil {
		t.Fatal("provider did not materialize HR content at hello")
	}
	lr := lrFromHR(t, hr)
	for i := 0; i < frames; i += testGOP {
		seq, err := streamer.SendChunk(lr[i : i+testGOP])
		if err != nil {
			t.Fatalf("chunk %d: %v", i/testGOP, err)
		}
		if seq != i/testGOP {
			t.Errorf("chunk seq = %d, want %d", seq, i/testGOP)
		}
	}

	// Distribution over HTTP.
	httpSrv := httptest.NewServer(srv.DistributionHandler())
	defer httpSrv.Close()
	viewer := NewViewer(httpSrv.URL)
	infos, err := viewer.Streams()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].StreamID != 42 || infos[0].Chunks != 2 {
		t.Fatalf("stream list = %+v", infos)
	}
	if infos[0].Content != "lol" || infos[0].Scale != testScale {
		t.Errorf("stream info = %+v", infos[0])
	}

	var out []*frame.Frame
	for seq := 0; seq < 2; seq++ {
		chunkFrames, err := viewer.WatchChunk(42, seq)
		if err != nil {
			t.Fatalf("watch chunk %d: %v", seq, err)
		}
		out = append(out, chunkFrames...)
	}
	if len(out) != frames {
		t.Fatalf("viewer decoded %d frames, want %d", len(out), frames)
	}
	psnr, err := metrics.MeanPSNR(hr, out)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 26 {
		t.Errorf("end-to-end viewer PSNR %.2f dB, too low", psnr)
	}
}

func TestEndToEndRemoteEnhancer(t *testing.T) {
	const frames = 12
	provider, store := contentOracle(t, frames)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	enhSrv, err := NewEnhancerServer("127.0.0.1:0", local, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer enhSrv.Close()
	remote, err := DialEnhancer(enhSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	srv, err := NewServer("127.0.0.1:0", remote, ServerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	streamer, err := NewStreamer(srv.Addr(), 7, testHello())
	if err != nil {
		t.Fatal(err)
	}
	defer streamer.Close()
	hr := store.get(7)
	lr := lrFromHR(t, hr)
	if _, err := streamer.SendChunk(lr); err != nil {
		t.Fatal(err)
	}

	httpSrv := httptest.NewServer(srv.DistributionHandler())
	defer httpSrv.Close()
	out, err := NewViewer(httpSrv.URL).WatchChunk(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	psnr, _ := metrics.MeanPSNR(hr, out)
	if psnr < 26 {
		t.Errorf("remote-enhancer path PSNR %.2f dB", psnr)
	}
}

func TestChunkBeforeHelloRejected(t *testing.T) {
	provider, _ := contentOracle(t, 4)
	local, _ := NewLocalEnhancer(provider)
	srv, err := NewServer("127.0.0.1:0", local, ServerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Raw connection that skips the hello.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := wire.Message{Type: wire.TypeChunk, StreamID: 1, Payload: wire.EncodeChunk(nil)}
	if err := wire.Write(conn, msg); err != nil {
		t.Fatal(err)
	}
	reply, err := wire.Read(conn, wire.DefaultMaxPayload)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.TypeError {
		t.Errorf("reply = %v, want error", reply.Type)
	}
}

// TestHostileHelloAllocatesNothing: a hello sizes every frame the
// stream's decoder will allocate, so it must pass the encoder's limits,
// and a truncated key packet on a large legal stream must fail its parse
// before any frame of that size exists.
func TestHostileHelloAllocatesNothing(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", &firstFail{}, ServerConfig{Logf: silentLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	send := func(conn net.Conn, msg wire.Message) wire.Message {
		t.Helper()
		if err := wire.Write(conn, msg); err != nil {
			t.Fatal(err)
		}
		reply, err := wire.Read(conn, wire.DefaultMaxPayload)
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}
	hello := func(conn net.Conn, streamID uint32, w, h int) wire.Message {
		t.Helper()
		hl := testHello()
		hl.Config.Width, hl.Config.Height = w, h
		payload, err := wire.EncodeHello(hl)
		if err != nil {
			t.Fatal(err)
		}
		return send(conn, wire.Message{Type: wire.TypeHello, StreamID: streamID, Payload: payload})
	}
	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}

	conn := dial()
	defer conn.Close()
	if reply := hello(conn, 1, 65535, 65535); reply.Type != wire.TypeError || !strings.Contains(string(reply.Payload), "too large") {
		t.Fatalf("65535x65535 hello: reply %v %q, want a dimensions rejection", reply.Type, reply.Payload)
	}

	// 4096x2176 is legal; its key frame alone is ~13 MB of planes.
	conn2 := dial()
	defer conn2.Close()
	if reply := hello(conn2, 2, 4096, 2176); reply.Type != wire.TypeAck {
		t.Fatalf("4096x2176 hello: reply %v %q, want ack", reply.Type, reply.Payload)
	}
	var bw bitstream.Writer
	bw.WriteBits(uint64(vcodec.Key), 2)
	bw.WriteBits(50, 7)
	bw.WriteUE(0)
	pkt := append(bw.Bytes(), bytes.Repeat([]byte{0x5a}, 14)...)[:16]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reply := send(conn2, wire.Message{Type: wire.TypeChunk, StreamID: 2, Payload: wire.EncodeChunk([][]byte{pkt})})
	runtime.ReadMemStats(&after)
	if reply.Type != wire.TypeError || !strings.Contains(string(reply.Payload), "intra block") {
		t.Fatalf("truncated key packet: reply %v %q, want a parse rejection", reply.Type, reply.Payload)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("rejecting a 16-byte key packet allocated %d bytes, want < 1 MiB", grew)
	}
}

func TestNonGOPAlignedChunkRejected(t *testing.T) {
	const frames = 18 // GOP 12: second chunk of 6 starts mid-GOP
	provider, store := contentOracle(t, frames)
	local, _ := NewLocalEnhancer(provider)
	srv, err := NewServer("127.0.0.1:0", local, ServerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	streamer, err := NewStreamer(srv.Addr(), 3, testHello())
	if err != nil {
		t.Fatal(err)
	}
	defer streamer.Close()
	lr := lrFromHR(t, store.get(3))
	if _, err := streamer.SendChunk(lr[:6]); err == nil {
		// First chunk ends mid-GOP; the *next* chunk then starts mid-GOP
		// and must be rejected.
		_, err = streamer.SendChunk(lr[6:12])
		if err == nil || !strings.Contains(err.Error(), "GOP") {
			t.Errorf("mid-GOP chunk: err = %v, want GOP-alignment rejection", err)
		}
	}
}

func TestServerRejectsExcessAnchorFraction(t *testing.T) {
	provider, _ := contentOracle(t, 4)
	local, _ := NewLocalEnhancer(provider)
	if _, err := NewServer("127.0.0.1:0", local, ServerConfig{AnchorFraction: 0.4}); err == nil {
		t.Error("anchor fraction above hybrid limit accepted")
	}
	if _, err := NewServer("127.0.0.1:0", nil, ServerConfig{}); err == nil {
		t.Error("nil enhancer accepted")
	}
}

func TestEnhancerServerRejectsUnknownStream(t *testing.T) {
	provider, _ := contentOracle(t, 4)
	local, _ := NewLocalEnhancer(provider)
	enhSrv, err := NewEnhancerServer("127.0.0.1:0", local, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer enhSrv.Close()
	remote, err := DialEnhancer(enhSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	_, err = remote.Enhance(99, wire.AnchorJob{Frame: frame.MustNew(testLRW, testLRH)})
	if !errors.Is(err, ErrUnknownStream) {
		t.Errorf("job for unregistered stream: %v, want ErrUnknownStream", err)
	}
}

func TestViewerErrors(t *testing.T) {
	provider, _ := contentOracle(t, 4)
	local, _ := NewLocalEnhancer(provider)
	srv, err := NewServer("127.0.0.1:0", local, ServerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	httpSrv := httptest.NewServer(srv.DistributionHandler())
	defer httpSrv.Close()
	viewer := NewViewer(httpSrv.URL)
	if _, err := viewer.FetchChunk(12345, 0); err == nil {
		t.Error("fetch of unknown stream succeeded")
	}
}
