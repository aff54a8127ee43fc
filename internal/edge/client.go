package edge

import (
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// Push is one unsolicited chunk delivery to a subscriber.
type Push struct {
	StreamID uint32
	Chunk    wire.ChunkData
}

// Client is a viewer-side edge connection: a wire.Mux routes replies
// (echoed Seq) to the waiting caller, so fetches and subscriptions may be
// issued concurrently from multiple goroutines, and hands unsolicited
// pushes (Seq 0) to the backlog NextPush drains.
type Client struct {
	mux     *wire.Mux
	timeout time.Duration
	pushes  chan Push
}

// pushBacklog bounds queued pushes per client; a viewer that stops
// draining NextPush loses the oldest pushes rather than stalling the
// edge's fanout (the live edge of the stream matters more than a
// backlog).
const pushBacklog = 256

// Dial connects to an edge. timeout is the budget stamped on every fetch
// and bounds each request's round trip: the write by timeout, the wait
// for the reply by timeout plus DefaultWriteTimeout. The edge answers a
// fetch within its budget — at worst with a typed "budget exhausted"
// error — and gets that reply out within its write timeout, so only an
// edge that has stopped answering outlasts the wait, and the connection
// is then failed for every caller (see wire.Mux). Zero uses
// DefaultFetchBudget.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = DefaultFetchBudget
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("edge: dial: %w", err)
	}
	c := &Client{timeout: timeout, pushes: make(chan Push, pushBacklog)}
	// The idle bound is generous — a client parked on a subscription may
	// legitimately idle; it exists to fail the connection if the edge
	// silently vanishes. The Mux gets no payload pool: every ChunkData the
	// client returns aliases its frame's payload, and the caller keeps it.
	c.mux = wire.NewMux(wire.NewConn(nc, DefaultReadTimeout, timeout), nil, c.queuePush)
	return c, nil
}

// Close says goodbye, tears down the connection and joins the reader.
func (c *Client) Close() error { return c.mux.Close() }

// queuePush decodes one unsolicited frame into the backlog. It runs on
// the Mux's reader goroutine and never blocks. The chunk aliases the
// payload, which the Mux allocated for this frame alone.
func (c *Client) queuePush(msg wire.Message) {
	if msg.Type != wire.TypeChunkData {
		return
	}
	cd, err := wire.DecodeChunkDataAlias(msg.Payload)
	if err != nil {
		return
	}
	p := Push{StreamID: msg.StreamID, Chunk: cd}
	select {
	case c.pushes <- p:
	default:
		// Backlog full: drop the oldest push to keep the newest.
		select {
		case <-c.pushes:
		default:
		}
		select {
		case c.pushes <- p:
		default:
		}
	}
}

// roundTrip sends one request frame and waits for its reply, which must
// be of type want.
func (c *Client) roundTrip(m wire.Message, want wire.Type) (wire.Message, error) {
	reply, err := c.mux.Call(m, c.timeout+DefaultWriteTimeout)
	if err != nil {
		return wire.Message{}, fmt.Errorf("edge: conn broken: %w", err)
	}
	if reply.Type == wire.TypeError {
		return wire.Message{}, fmt.Errorf("edge: remote: %s", reply.Payload)
	}
	if reply.Type != want {
		return wire.Message{}, fmt.Errorf("edge: %v reply type %v", m.Type, reply.Type)
	}
	return reply, nil
}

// FetchChunk requests one chunk, stamping the client timeout as the
// request's end-to-end budget so the edge and origin shed work the
// viewer has already abandoned. The returned Data is the caller's: it
// aliases the reply payload, which the Mux allocated for this frame
// alone.
func (c *Client) FetchChunk(streamID uint32, seq uint32, quality uint8) (wire.ChunkData, error) {
	reply, err := c.roundTrip(wire.Message{
		Type: wire.TypeFetchChunk, StreamID: streamID, Budget: c.timeout,
		Payload: wire.AppendFetchChunk(nil, wire.FetchChunk{Seq: seq, Quality: quality}),
	}, wire.TypeChunkData)
	if err != nil {
		return wire.ChunkData{}, err
	}
	cd, err := wire.DecodeChunkDataAlias(reply.Payload)
	if err != nil {
		return wire.ChunkData{}, fmt.Errorf("edge: fetch reply: %w", err)
	}
	return cd, nil
}

// Subscribe registers for pushes of a stream's chunks from fromSeq on;
// deliveries arrive via NextPush as other viewers' fetches populate the
// edge.
func (c *Client) Subscribe(streamID uint32, fromSeq uint32, quality uint8) error {
	_, err := c.roundTrip(wire.Message{
		Type: wire.TypeSubscribe, StreamID: streamID,
		Payload: wire.EncodeSubscribe(wire.Subscribe{FromSeq: fromSeq, Quality: quality}),
	}, wire.TypeSubscribe)
	return err
}

// ErrNoPush is NextPush's result when nothing arrived within the timeout.
var ErrNoPush = errors.New("edge: no push within timeout")

// NextPush returns the next subscribed delivery, waiting up to timeout
// or until the connection fails.
func (c *Client) NextPush(timeout time.Duration) (Push, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case p := <-c.pushes:
		return p, nil
	case <-c.mux.Failed():
		return Push{}, fmt.Errorf("edge: conn broken: %w", c.mux.Err())
	case <-t.C:
		return Push{}, ErrNoPush
	}
}
