package edge

import (
	"bytes"
	"net"
	"testing"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/par"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// TestColdFetchAllocs pins what a cold fetch costs the edge on the heap
// once warm: the cache entry and the deadline net.Pipe arms, and nothing
// for the request, whose payload is encoded into the upstream conn's own
// scratch. The origin is a stub on the other end of the pipe that answers
// every fetch with the same container and allocates nothing itself.
func TestColdFetchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	edgeSide, originSide := net.Pipe()
	defer originSide.Close()
	container := bytes.Repeat([]byte{7}, 1000)
	go func() {
		origin := wire.NewConn(originSide, 0, 0)
		var reqs par.SlabPool[byte]
		for {
			req, err := origin.ReadPooled(wire.DefaultMaxPayload, &reqs)
			if err != nil {
				return
			}
			f, err := wire.DecodeFetchChunk(req.Payload)
			reqs.Put(req.Payload)
			if err != nil {
				return
			}
			reply := wire.Message{Type: wire.TypeChunkData, StreamID: req.StreamID, Seq: req.Seq}
			if origin.WriteChunkData(reply, wire.ChunkData{Seq: f.Seq, Data: container}) != nil {
				return
			}
		}
	}()
	e, err := NewEdge("127.0.0.1:0", Config{
		Upstream:     "origin",
		DialUpstream: func(string) (net.Conn, error) { return edgeSide, nil },
		Logf:         quietf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var u upstreamConn
	defer u.breakConn()
	k := Key{Stream: 4, Seq: 9}
	fetch := func() {
		ent, err := e.fetchOn(&u, k, time.Now().Add(time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ent.prefix[9:], container) {
			t.Fatal("fetched entry holds the wrong container")
		}
		ent.release()
	}
	fetch() // dials the pipe and warms the pools
	pipeDeadline := testing.AllocsPerRun(100, func() { _ = edgeSide.SetDeadline(time.Now().Add(time.Minute)) })
	n := testing.AllocsPerRun(100, fetch)
	t.Logf("a cold fetch allocates %.0f, arming the pipe's deadline %.0f", n, pipeDeadline)
	if n > 1+pipeDeadline {
		t.Errorf("a cold fetch allocates %.0f, want at most %.0f: the entry and the pipe's deadline", n, 1+pipeDeadline)
	}
}
