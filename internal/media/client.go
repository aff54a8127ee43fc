package media

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/hybrid"
	"github.com/neuroscaler/neuroscaler/internal/vcodec"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// Streamer is the ingest-side client: it encodes raw frames and uploads
// chunks to the media server, as a broadcaster's software would. Chunks
// can be uploaded synchronously (SendChunk) or pipelined (SendChunkAsync
// + Flush) so the next chunk encodes and uploads while the server is
// still enhancing the previous one. A Streamer is not safe for
// concurrent use; pipelining happens inside one caller's send order.
type Streamer struct {
	// conn bounds every write by DefaultWriteTimeout and every wait for
	// the next reply by DefaultIdleTimeout, when the server reaps the
	// connection anyway.
	conn     *wire.Conn
	streamID uint32
	encoder  *vcodec.Encoder
	seq      uint32

	// Timeout, when positive, bounds the wait for each chunk's
	// acknowledgement so a stalled server cannot wedge the broadcaster.
	// Zero waits as long as the connection lives.
	Timeout time.Duration

	// ChunkBudget, when positive, stamps every uploaded chunk with a
	// deadline budget: the server's whole admit-to-store allowance for
	// the chunk (decode, enhancement, packaging), carried in the frame
	// header's budget field. Zero sends chunks without a deadline.
	ChunkBudget time.Duration

	// Ack correlation for pipelined sends: the server replies in arrival
	// order and a chunk's ack carries the store's sequence number, not
	// the request's (see wire.Message), so outstanding sends form a FIFO
	// queue that a single reader goroutine drains — not a wire.Mux, which
	// matches by echoed Seq. The queue state below is guarded by ackMu.
	ackMu   sync.Mutex
	pending []pendingReply
	broken  error

	// readerWG joins the ack reader at Close: closing the conn fails its
	// blocked read, so the wait is always bounded.
	readerWG sync.WaitGroup
}

type pendingReply struct {
	ch   chan ackOutcome
	want wire.Type
}

type ackOutcome struct {
	seq int
	err error
}

// NewStreamer connects to the media server, announces the stream, and
// returns a ready client.
func NewStreamer(addr string, streamID uint32, hello wire.Hello) (*Streamer, error) {
	enc, err := vcodec.NewEncoder(hello.Config)
	if err != nil {
		return nil, err
	}
	// Hello travels with defaults resolved so both sides agree exactly.
	hello.Config = enc.Config()
	payload, err := wire.EncodeHello(hello)
	if err != nil {
		return nil, err
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("media: dial ingest: %w", err)
	}
	s := &Streamer{conn: wire.NewConn(nc, DefaultIdleTimeout, DefaultWriteTimeout), streamID: streamID, encoder: enc}
	s.readerWG.Add(1)
	go s.readReplies()
	// The handshake is the first round trip; bound it so an unresponsive
	// server cannot wedge the caller.
	hi := wire.Message{Type: wire.TypeHello, StreamID: streamID, Payload: payload}
	if err := s.roundTrip(hi, wire.TypeAck, DefaultWriteTimeout); err != nil {
		_ = s.Close()
		return nil, fmt.Errorf("media: hello: %w", err)
	}
	return s, nil
}

// SendChunk encodes and uploads one chunk of raw frames, returning the
// chunk sequence number assigned by the server.
func (s *Streamer) SendChunk(frames []*frame.Frame) (int, error) {
	p, err := s.SendChunkAsync(frames)
	if err != nil {
		return 0, err
	}
	return p.Wait()
}

// PendingAck is the handle for one in-flight chunk upload.
type PendingAck struct {
	ch      chan ackOutcome
	timeout time.Duration
	done    bool
	out     ackOutcome
}

// Wait blocks until the server acknowledges the chunk and returns its
// assigned sequence number. The streamer's Timeout (captured at send
// time) bounds the wait. Wait is idempotent but not safe for concurrent
// use.
func (p *PendingAck) Wait() (int, error) {
	if !p.done {
		var expiry <-chan time.Time // nil, so never ready, without a timeout
		if p.timeout > 0 {
			t := time.NewTimer(p.timeout)
			defer t.Stop()
			expiry = t.C
		}
		select {
		case p.out = <-p.ch:
		case <-expiry:
			return 0, fmt.Errorf("media: chunk ack timed out after %v", p.timeout)
		}
		p.done = true
	}
	return p.out.seq, p.out.err
}

// SendChunkAsync encodes and writes one chunk without waiting for the
// server's acknowledgement, so the broadcaster pipelines uploads against
// server-side enhancement. Acks arrive in send order; call Wait on the
// returned handle (or Flush) to collect them.
func (s *Streamer) SendChunkAsync(frames []*frame.Frame) (*PendingAck, error) {
	pkts, err := s.encoder.EncodeChunk(frames)
	if err != nil {
		return nil, err
	}
	raw := make([][]byte, len(pkts))
	for i, p := range pkts {
		raw[i] = p.Data
	}
	s.seq++
	msg := wire.Message{
		Type:     wire.TypeChunk,
		StreamID: s.streamID,
		Seq:      s.seq,
		Payload:  wire.EncodeChunk(raw),
		Budget:   s.ChunkBudget,
	}
	return s.send(msg, wire.TypeAck, s.Timeout)
}

// Flush waits until every outstanding chunk has been acknowledged. It
// rides the reply ordering: a ping is queued behind the in-flight chunks
// and the server answers strictly in arrival order, so its pong implies
// all earlier acks have been delivered.
func (s *Streamer) Flush() error {
	s.ackMu.Lock()
	outstanding := len(s.pending)
	s.ackMu.Unlock()
	if outstanding == 0 {
		return nil
	}
	return s.roundTrip(wire.Message{Type: wire.TypePing, StreamID: s.streamID}, wire.TypePong, s.Timeout)
}

// roundTrip sends msg behind whatever is outstanding and waits up to
// timeout for its reply, which must be of type want.
func (s *Streamer) roundTrip(msg wire.Message, want wire.Type, timeout time.Duration) error {
	p, err := s.send(msg, want, timeout)
	if err != nil {
		return err
	}
	_, err = p.Wait()
	return err
}

// send queues the reply msg is owed — of type want, behind every reply
// already owed — and writes msg. The handle's Wait is bounded by timeout.
func (s *Streamer) send(msg wire.Message, want wire.Type, timeout time.Duration) (*PendingAck, error) {
	s.ackMu.Lock()
	if s.broken != nil {
		s.ackMu.Unlock()
		return nil, s.broken
	}
	ch := make(chan ackOutcome, 1)
	s.pending = append(s.pending, pendingReply{ch: ch, want: want})
	s.ackMu.Unlock()
	if err := s.conn.Write(msg); err != nil {
		s.failPending(err)
		return nil, err
	}
	return &PendingAck{ch: ch, timeout: timeout}, nil
}

// readReplies drains server replies, matching them FIFO against the
// pending queue (the server replies strictly in arrival order).
func (s *Streamer) readReplies() {
	defer s.readerWG.Done()
	for {
		reply, err := s.conn.Read(wire.DefaultMaxPayload)
		if err != nil {
			s.failPending(err)
			return
		}
		s.ackMu.Lock()
		if len(s.pending) == 0 {
			s.ackMu.Unlock()
			continue // unsolicited reply; ignore
		}
		pr := s.pending[0]
		s.pending = s.pending[1:]
		s.ackMu.Unlock()
		switch reply.Type {
		case pr.want:
			pr.ch <- ackOutcome{seq: int(reply.Seq)}
		case wire.TypeError:
			// Typed overload replies (shed, deadline) surface as their
			// sentinels so the broadcaster can tell backpressure from a
			// protocol failure.
			pr.ch <- ackOutcome{err: remoteError("media: rejected", reply.Payload)}
		default:
			pr.ch <- ackOutcome{err: fmt.Errorf("media: unexpected reply %v (want %v)", reply.Type, pr.want)}
		}
	}
}

func (s *Streamer) failPending(err error) {
	s.ackMu.Lock()
	defer s.ackMu.Unlock()
	if s.broken == nil {
		s.broken = err
	}
	for _, pr := range s.pending {
		pr.ch <- ackOutcome{err: err}
	}
	s.pending = nil
}

// Close ends the session. The goodbye is best effort: on a dead peer it
// costs the write deadline at most.
func (s *Streamer) Close() error {
	_ = s.conn.Write(wire.Message{Type: wire.TypeGoodbye, StreamID: s.streamID})
	err := s.conn.Close()
	// Join the ack reader: the closed conn fails its read, failPending
	// delivers every outstanding ack (buffered channels), and it exits.
	s.readerWG.Wait()
	return err
}

// Viewer is the distribution-side client: it fetches hybrid containers
// over HTTP and decodes them to high-resolution frames on the "device".
type Viewer struct {
	base   string
	client *http.Client
}

// NewViewer returns a viewer for a distribution endpoint
// (e.g. "http://127.0.0.1:8080").
func NewViewer(baseURL string) *Viewer {
	return &Viewer{base: baseURL, client: http.DefaultClient}
}

// Streams lists available streams.
func (v *Viewer) Streams() ([]StreamInfo, error) {
	resp, err := v.client.Get(v.base + "/streams")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("media: list streams: %s", resp.Status)
	}
	var infos []StreamInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// FetchChunk downloads one hybrid container.
func (v *Viewer) FetchChunk(streamID uint32, seq int) (*hybrid.Container, error) {
	url := fmt.Sprintf("%s/streams/%d/chunks/%d", v.base, streamID, seq)
	resp, err := v.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("media: fetch chunk: %s", resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var c hybrid.Container
	if err := c.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return &c, nil
}

// WatchChunk downloads and fully decodes one chunk to HR frames.
func (v *Viewer) WatchChunk(streamID uint32, seq int) ([]*frame.Frame, error) {
	c, err := v.FetchChunk(streamID, seq)
	if err != nil {
		return nil, err
	}
	return hybrid.Decode(c)
}
