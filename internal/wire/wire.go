// Package wire implements the length-prefixed binary framing used between
// NeuroScaler components: streamer → media server (ingest chunks), media
// server → anchor enhancer (anchor jobs), and enhancer → media server
// (enhanced results). It plays the role gRPC plays in the paper, on plain
// TCP with CRC-protected frames, behind one connection layer (conn.go):
// Conn (locked, deadlined frame I/O), Mux (the Seq-demultiplexing client)
// and Serve (the accept loop that joins its handlers).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync/atomic"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/par"
)

// Type identifies a message kind.
type Type uint8

const (
	// TypeHello opens a session and carries the stream configuration.
	TypeHello Type = iota + 1
	// TypeChunk carries one encoded ingest chunk.
	TypeChunk
	// TypeAck acknowledges a chunk or job.
	TypeAck
	// TypeError reports a failure; the payload is a human-readable reason.
	TypeError
	// TypeGoodbye closes a session cleanly.
	TypeGoodbye
	// TypePing probes peer liveness (heartbeat health checks).
	TypePing
	// TypePong answers a ping.
	TypePong
	// TypeAnchorBatchJob carries several decoded anchor frames to an
	// enhancer in one round trip; the reply is one TypeAnchorBatchResult
	// with per-anchor outcomes in job order.
	TypeAnchorBatchJob
	// TypeAnchorBatchResult carries the per-anchor outcomes of a batch
	// job (each anchor succeeds or fails independently).
	TypeAnchorBatchResult
	// TypeFetchChunk asks a serving tier (origin or edge) for one stored
	// chunk; the payload is an encoded FetchChunk and the reply echoes
	// the request Seq with a TypeChunkData (or TypeError) frame.
	TypeFetchChunk
	// TypeChunkData carries one enhanced hybrid container to a viewer or
	// edge: solicited (echoing a fetch Seq) or unsolicited (Seq 0, pushed
	// to subscribers).
	TypeChunkData
	// TypeSubscribe registers the sending connection for unsolicited
	// TypeChunkData pushes of a stream's future chunks (edge fanout).
	TypeSubscribe
)

// typeNames names every assigned message type, indexed by value: a type
// is assigned exactly when it indexes this array.
var typeNames = [...]string{
	TypeHello:             "hello",
	TypeChunk:             "chunk",
	TypeAck:               "ack",
	TypeError:             "error",
	TypeGoodbye:           "goodbye",
	TypePing:              "ping",
	TypePong:              "pong",
	TypeAnchorBatchJob:    "anchor-batch-job",
	TypeAnchorBatchResult: "anchor-batch-result",
	TypeFetchChunk:        "fetch-chunk",
	TypeChunkData:         "chunk-data",
	TypeSubscribe:         "subscribe",
}

// valid reports whether t is an assigned message type; Read and Write
// reject every frame whose type is not.
func (t Type) valid() bool { return t != 0 && int(t) < len(typeNames) }

// String implements fmt.Stringer.
func (t Type) String() string {
	if t.valid() {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Message is one protocol frame.
//
// Seq correlates a request with its reply: a responder echoes the
// request's Seq verbatim. The protocol does not require replies to come
// back in request order — a peer multiplexing many outstanding requests
// on one connection must allocate distinct Seqs (see SeqSource) and
// demultiplex replies by Seq (see Mux) rather than assuming FIFO
// delivery. Seq 0 is reserved for unsolicited messages that expect no
// correlation.
//
// The one exception is the ingest connection: the origin answers every
// frame on it strictly in arrival order, and the TypeAck of a TypeChunk
// carries the sequence number the store assigned the chunk in Seq, not
// the request's. A streamer therefore matches replies by arrival order
// and reads its chunk's number out of the ack.
type Message struct {
	Type     Type
	StreamID uint32
	Seq      uint32
	Payload  []byte
	// Budget is the remaining deadline budget the sender grants the
	// receiver for this message's work. It is relative (remaining time,
	// not absolute wall clock) so clock skew between peers never corrupts
	// it; each hop re-derives its local deadline as now+Budget. Zero
	// means "no deadline".
	Budget time.Duration
}

// SeqSource allocates request Seqs for one connection. It is safe for
// concurrent use and never returns 0 (the unsolicited sentinel), so a
// demultiplexer can key a pending-call map on the values directly. The
// zero value is ready to use.
type SeqSource struct {
	n atomic.Uint32
}

// Next returns the next non-zero sequence number.
func (s *SeqSource) Next() uint32 {
	for {
		if v := s.n.Add(1); v != 0 {
			return v
		}
	}
}

const (
	frameMagic = 0x4E57 // "NW"
	// headerLen is the frame header: magic(2) type(1) stream(4) seq(4)
	// budget_us(8) len(4) crc(4), big-endian. budget_us is the Budget in
	// microseconds, zero for none; crc is the payload's CRC-32 (IEEE).
	headerLen = 2 + 1 + 4 + 4 + 8 + 4 + 4
	// maxBudgetMicros keeps a decoded Budget clear of Duration overflow.
	maxBudgetMicros = uint64(1<<62) / uint64(time.Microsecond)
	// DefaultMaxPayload bounds frame size against malicious peers.
	DefaultMaxPayload = 64 << 20
)

// ErrFrameTooLarge reports a frame exceeding the reader's payload bound.
var ErrFrameTooLarge = errors.New("wire: frame exceeds payload limit")

// ErrBadFrame reports a corrupt frame (magic or checksum mismatch).
var ErrBadFrame = errors.New("wire: corrupt frame")

// putHeader fills hdr for m carrying an n-byte payload with checksum sum.
func putHeader(hdr *[headerLen]byte, m Message, n int, sum uint32) error {
	// Mirror Read's validation: emitting a frame the peer will reject as
	// corrupt is a bug at the writer, not the reader.
	if !m.Type.valid() {
		return fmt.Errorf("wire: invalid message type %d", m.Type)
	}
	var micros time.Duration
	if m.Budget > 0 {
		// Sub-microsecond remainders still mean "a deadline exists";
		// round up so the receiver sees expiry, not "no deadline".
		micros = max(m.Budget/time.Microsecond, 1)
	}
	binary.BigEndian.PutUint16(hdr[0:], frameMagic)
	hdr[2] = byte(m.Type)
	binary.BigEndian.PutUint32(hdr[3:], m.StreamID)
	binary.BigEndian.PutUint32(hdr[7:], m.Seq)
	binary.BigEndian.PutUint64(hdr[11:], uint64(micros))
	binary.BigEndian.PutUint32(hdr[19:], uint32(n))
	binary.BigEndian.PutUint32(hdr[23:], sum)
	return nil
}

// Write serializes a message to w: the header (see headerLen), then the
// payload.
func Write(w io.Writer, m Message) error {
	var fw frameWriter
	return fw.writeFrame(w, m, crc32.ChecksumIEEE(m.Payload), m.Payload)
}

// frameWriter is the scratch one frame write needs: the header and the
// vector of parts handed to the writer. A Conn keeps one under its write
// lock, so its frames allocate nothing once warm.
type frameWriter struct {
	hdr [headerLen]byte
	// vec backs bufs. It starts on the inline slots, enough for a frame of
	// up to three parts, and keeps the capacity of the largest frame since,
	// so only a Conn's first frame of many parts grows it.
	inline [4][]byte
	vec    [][]byte
	bufs   net.Buffers
}

// writeFrame writes one frame whose payload is the concatenation of parts
// and whose payload checksum is sum. The header and the non-empty parts
// go out as one net.Buffers write: a single writev(2) on a *net.TCPConn,
// one Write per part on any other writer. The parts are only read, and
// not retained once it returns.
func (fw *frameWriter) writeFrame(w io.Writer, m Message, sum uint32, parts ...[]byte) error {
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	if err := putHeader(&fw.hdr, m, size, sum); err != nil {
		return err
	}
	if fw.vec == nil {
		fw.vec = fw.inline[:0]
	}
	fw.bufs = append(fw.vec[:0], fw.hdr[:])
	for _, p := range parts {
		if len(p) > 0 {
			fw.bufs = append(fw.bufs, p)
		}
	}
	// WriteTo consumes bufs from the front; vec keeps the backing array.
	fw.vec = fw.bufs[:0]
	used := len(fw.bufs)
	_, err := fw.bufs.WriteTo(w)
	clear(fw.vec[:used])
	if err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// readHeader reads and validates a frame header into hdr, returning the
// message shell plus the payload length and checksum still to be read.
func readHeader(r io.Reader, hdr *[headerLen]byte, maxPayload int) (m Message, n, sum uint32, err error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return m, 0, 0, io.EOF
		}
		return m, 0, 0, fmt.Errorf("wire: read header: %w", err)
	}
	micros := binary.BigEndian.Uint64(hdr[11:])
	if binary.BigEndian.Uint16(hdr[0:]) != frameMagic || !Type(hdr[2]).valid() || micros > maxBudgetMicros {
		return m, 0, 0, ErrBadFrame
	}
	n = binary.BigEndian.Uint32(hdr[19:])
	if int64(n) > int64(maxPayload) {
		return m, 0, 0, ErrFrameTooLarge
	}
	m = Message{
		Type:     Type(hdr[2]),
		StreamID: binary.BigEndian.Uint32(hdr[3:]),
		Seq:      binary.BigEndian.Uint32(hdr[7:]),
		Budget:   time.Duration(micros) * time.Microsecond,
	}
	return m, n, binary.BigEndian.Uint32(hdr[23:]), nil
}

// Read parses the next message from r, rejecting frames larger than
// maxPayload (use DefaultMaxPayload when in doubt). The payload is
// allocated for this frame alone: Read is ReadPooled with no pool.
func Read(r io.Reader, maxPayload int) (Message, error) {
	return ReadPooled(r, maxPayload, nil)
}

// ReadPooled parses the next message from r like Read, but borrows the
// payload buffer from pool instead of allocating it (a nil pool
// allocates, as Read does). On success, ownership of m.Payload transfers
// to the caller, who must return it to the same pool once every slice
// derived from it (see DecodeChunk) is dead. On error nothing stays
// borrowed.
//
//nslint:slab-borrow pool
func ReadPooled(r io.Reader, maxPayload int, pool *par.SlabPool[byte]) (Message, error) {
	var hdr [headerLen]byte
	return readPooled(r, &hdr, maxPayload, pool)
}

// readPooled is ReadPooled with the header parsed into hdr.
//
//nslint:slab-borrow pool
func readPooled(r io.Reader, hdr *[headerLen]byte, maxPayload int, pool *par.SlabPool[byte]) (Message, error) {
	m, n, sum, err := readHeader(r, hdr, maxPayload)
	if err != nil {
		return Message{}, err
	}
	if n > 0 {
		m.Payload = pool.Get(int(n))
		if _, err := io.ReadFull(r, m.Payload); err != nil {
			pool.Put(m.Payload)
			return Message{}, fmt.Errorf("wire: read payload: %w", err)
		}
	}
	if crc32.ChecksumIEEE(m.Payload) != sum {
		pool.Put(m.Payload)
		return Message{}, ErrBadFrame
	}
	return m, nil
}
