package media_test

import (
	"errors"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/edge"
	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/media"
	"github.com/neuroscaler/neuroscaler/internal/sr"
	"github.com/neuroscaler/neuroscaler/internal/vcodec"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// TestMalformedWireTraffic throws protocol garbage at every serving role:
// the origin, an EnhancerServer replica and an edge. Each drops a
// connection that opens with bytes that are no frame, and answers every
// assigned frame type it does not serve with a TypeError reply or by
// closing the connection — never with silence, which would leave the
// sender waiting for a reply that is not coming. It lives outside package
// media because the edge imports media.
func TestMalformedWireTraffic(t *testing.T) {
	hello := wire.Hello{
		Config: vcodec.Config{Width: 96, Height: 64, FPS: 30, BitrateKbps: 700, GOP: 12, Mode: vcodec.ModeConstrainedVBR},
		Scale:  3, Model: sr.HighQuality(), Content: "lol",
	}
	provider := func(_ uint32, h wire.Hello) (sr.Model, error) {
		return sr.NewOracleModel(h.Model, []*frame.Frame{frame.MustNew(h.Config.Width*h.Scale, h.Config.Height*h.Scale)})
	}
	local, err := media.NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := media.NewServer("127.0.0.1:0", local, media.ServerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	enh, err := media.NewEnhancerServer("127.0.0.1:0", local, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer enh.Close()
	e, err := edge.NewEdge("127.0.0.1:0", edge.Config{Upstream: srv.Addr(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for _, role := range []struct {
		name   string
		addr   string
		serves []wire.Type
	}{
		{"origin", srv.Addr(), []wire.Type{wire.TypeHello, wire.TypeChunk, wire.TypeGoodbye, wire.TypePing, wire.TypeFetchChunk}},
		{"enhancer", enh.Addr(), []wire.Type{wire.TypeHello, wire.TypeGoodbye, wire.TypePing, wire.TypeAnchorBatchJob}},
		{"edge", e.Addr(), []wire.Type{wire.TypeGoodbye, wire.TypePing, wire.TypeFetchChunk, wire.TypeSubscribe}},
	} {
		conn, err := net.Dial("tcp", role.addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
			t.Fatal(err)
		}
		conn.Close()

		for v := 1; v < 256; v++ {
			typ := wire.Type(v)
			if wire.Write(io.Discard, wire.Message{Type: typ}) != nil || slices.Contains(role.serves, typ) {
				continue // unassigned (no reader passes it on) or served
			}
			if got := unanswered(t, role.addr, typ); got != "" {
				t.Errorf("%s: a frame of type %v went unanswered: the ping after it got %s", role.name, typ, got)
			}
		}
	}

	// The origin still serves real clients afterwards.
	streamer, err := media.NewStreamer(srv.Addr(), 77, hello)
	if err != nil {
		t.Fatalf("server unusable after garbage: %v", err)
	}
	streamer.Close()
}

// unanswered sends a frame of type typ to addr on a fresh connection,
// then a ping. It says what came back first unless that was a TypeError
// reply or the connection closing: the ping's pong, another reply, or
// nothing within the read timeout.
func unanswered(t *testing.T, addr string, typ wire.Type) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	for _, m := range []wire.Message{{Type: typ, StreamID: 5, Seq: 1}, {Type: wire.TypePing, StreamID: 5, Seq: 2}} {
		if err := wire.Write(conn, m); err != nil {
			return "" // closed already
		}
	}
	reply, err := wire.Read(conn, wire.DefaultMaxPayload)
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		return "no reply"
	case err != nil || reply.Type == wire.TypeError:
		return ""
	default:
		return "a " + reply.Type.String() + " reply"
	}
}
