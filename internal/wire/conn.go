package wire

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/par"
)

// Conn is one framed connection, and the only place the serving path arms
// a connection deadline. Any number of goroutines may write: each frame
// goes out whole, in one vectored write under the write lock and a write
// deadline, so a peer that stops reading costs a writer the write
// timeout, never a wedged goroutine or the lock. A connection has one
// reader at a time, which waits at most the idle timeout for the next
// frame. Headers are built and parsed in per-Conn scratch, so a frame
// costs no allocation beyond a payload that Read hands out.
type Conn struct {
	nc net.Conn
	// Both timeouts are fixed at construction; zero means unbounded.
	idleTimeout, writeTimeout time.Duration

	// wmu serializes frame writes. It is a leaf lock: nothing is called
	// under it but the net.Conn.
	wmu sync.Mutex
	// fw and head are the write scratch (the frame header and vector, a
	// chunk-data payload's head), guarded by wmu.
	fw   frameWriter
	head [chunkDataHeadLen]byte
	// rhdr is the read scratch; the one-reader rule is its only guard.
	rhdr [headerLen]byte

	closeOnce sync.Once
	closeErr  error
}

// NewConn frames nc. idle bounds each wait for the next frame (the
// slowloris guard of a server, the dead-peer guard of a client), write
// bounds each frame write; zero disables either bound.
func NewConn(nc net.Conn, idle, write time.Duration) *Conn {
	return &Conn{nc: nc, idleTimeout: idle, writeTimeout: write}
}

// deadlineIn turns a bound into the deadline it sets from now; no bound
// is the zero time, which clears a connection deadline.
func deadlineIn(bound time.Duration) time.Time {
	if bound <= 0 {
		return time.Time{}
	}
	return time.Now().Add(bound)
}

// Write sends one frame (see the package-level Write for the layout). Its
// deadline is the connection's write timeout, tightened to m's own budget
// when it carries one: a frame is not worth writing past the deadline of
// the work it asks for.
func (c *Conn) Write(m Message) error {
	return c.WriteParts(m, m.Payload)
}

// WriteParts sends the frame Write would send with Payload = the
// concatenation of parts, under the same deadline rule, without joining
// them: each part goes out as it lies, in the one vectored write every
// frame is. m's own Payload is not sent. The parts are only read, and
// not retained once it returns, so pooled parts may go back to their
// pool then and not before.
func (c *Conn) WriteParts(m Message, parts ...[]byte) error {
	var sum uint32
	for _, p := range parts {
		sum = crc32.Update(sum, crc32.IEEETable, p)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeLocked(m, sum, parts...)
}

// WriteShared sends the frame Write would send with Payload =
// prefix‖tail, under the same deadline rule. crcPrefix must be
// crc32.ChecksumIEEE(prefix): the frame checksum is extended over tail
// with crc32.Update, so a cached prefix (the edge's hit path, where tail
// is ChunkDataTail) is never re-scanned. Neither part is copied or
// retained, so a pooled prefix may go back to its pool once the call
// returns.
func (c *Conn) WriteShared(m Message, prefix, tail []byte, crcPrefix uint32) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeLocked(m, crc32.Update(crcPrefix, crc32.IEEETable, tail), prefix, tail)
}

// WriteChunkData sends one frame carrying cd as its payload, the bytes
// of EncodeChunkData(cd), without copying cd.Data: the 9-byte head is
// built in the Conn's scratch and the container and flags byte go out as
// parts of the same write. m gives the header fields; its Payload is not
// sent.
func (c *Conn) WriteChunkData(m Message, cd ChunkData) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	putChunkDataHead(&c.head, cd)
	tail := ChunkDataTail(cd.Degraded, cd.CacheHit)
	sum := crc32.Update(crc32.ChecksumIEEE(c.head[:]), crc32.IEEETable, cd.Data)
	return c.writeLocked(m, crc32.Update(sum, crc32.IEEETable, tail), c.head[:], cd.Data, tail)
}

// writeLocked arms the write deadline Write describes and writes one
// frame of parts. Callers hold wmu.
func (c *Conn) writeLocked(m Message, sum uint32, parts ...[]byte) error {
	timeout := c.writeTimeout
	if m.Budget > 0 && (timeout <= 0 || m.Budget < timeout) {
		timeout = m.Budget
	}
	_ = c.nc.SetWriteDeadline(deadlineIn(timeout))
	return c.fw.writeFrame(c.nc, m, sum, parts...)
}

// Read returns the next frame, waiting at most the idle timeout for it.
// The payload is allocated for this frame alone.
func (c *Conn) Read(maxPayload int) (Message, error) {
	return c.ReadPooled(maxPayload, nil)
}

// ReadPooled is Read with the payload borrowed from pool (see the
// package-level ReadPooled for the ownership rule; a nil pool allocates).
//
//nslint:slab-borrow pool
func (c *Conn) ReadPooled(maxPayload int, pool *par.SlabPool[byte]) (Message, error) {
	_ = c.nc.SetReadDeadline(deadlineIn(c.idleTimeout))
	return readPooled(c.nc, &c.rhdr, maxPayload, pool)
}

// RoundTrip is one serial request/response under a single deadline: for
// a connection that carries one request at a time, where the caller's
// remaining budget bounds the whole exchange rather than each half of it.
// The reply's payload is borrowed from pool, as with ReadPooled. It must
// not run beside another reader of c.
//
//nslint:slab-borrow pool
func (c *Conn) RoundTrip(m Message, deadline time.Time, maxPayload int, pool *par.SlabPool[byte]) (Message, error) {
	c.wmu.Lock()
	_ = c.nc.SetDeadline(deadline)
	err := c.fw.writeFrame(c.nc, m, crc32.ChecksumIEEE(m.Payload), m.Payload)
	c.wmu.Unlock()
	if err != nil {
		return Message{}, err
	}
	return readPooled(c.nc, &c.rhdr, maxPayload, pool)
}

// RemoteAddr names the peer, for diagnostics.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// Close closes the connection, failing any blocked read or write. It is
// idempotent: every call returns the first close's result.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.nc.Close() })
	return c.closeErr
}

// ErrorReply is the TypeError frame answering req with cause.
func ErrorReply(req Message, cause error) Message {
	return Message{Type: TypeError, StreamID: req.StreamID, Seq: req.Seq, Payload: []byte(cause.Error())}
}

// ErrClosed is what a Mux reports once its Close has been called.
var ErrClosed = errors.New("wire: connection closed")

// Mux is the client side of a connection whose peer answers by Seq: any
// number of goroutines Call concurrently, each request goes out under a
// fresh Seq, and one reader goroutine hands every reply to the call
// registered under the Seq it echoes. Frames with Seq 0 are unsolicited
// and go to the push callback, never to a caller. Whoever a Message is
// delivered to owns its Payload: without a pool it was allocated for that
// frame alone; with one it is borrowed from the pool, and the caller (or
// the push callback) returns it there once nothing reads it.
//
// A Mux is one connection generation: once it has failed it stays failed,
// every pending call has been failed exactly once with the cause, later
// calls fail fast with it, and the owner makes a new Mux over a new
// connection if it wants one.
//
// Two rules are decided here, once, for every client:
//
//   - A call whose wait expires fails the connection. A peer silent past
//     the bound is taken for dead, so the other pending calls fail now
//     rather than each waiting out its own bound, and the late reply — if
//     there ever is one — cannot arrive on a connection that still has
//     callers.
//   - A reply no call is waiting for fails the connection. Seqs are
//     unique per Mux and, by the first rule, no call stops waiting while
//     the connection lives, so an unmatched Seq means the peer broke the
//     correlation and nothing read after it can be trusted to belong to
//     the call it names.
type Mux struct {
	conn *Conn
	seqs SeqSource
	pool *par.SlabPool[byte]
	push func(Message)

	mu sync.Mutex
	// pending maps the Seq of each call in flight to its reply slot; err
	// is the cause of failure, nil while the Mux is usable. Both guarded
	// by mu. A slot is closed, not sent to, when the Mux fails.
	pending map[uint32]chan Message
	err     error
	// failed closes when err is set; reader joins the reader goroutine.
	failed chan struct{}
	reader sync.WaitGroup
}

// NewMux starts demultiplexing conn, which it owns from here on. Its
// reader borrows each payload from pool and hands it over with the
// Message (see Mux); a nil pool allocates each one instead, for callers
// that keep the bytes they are given. push, when non-nil, receives every
// Seq-0 frame on the reader goroutine and must not block.
func NewMux(conn *Conn, pool *par.SlabPool[byte], push func(Message)) *Mux {
	m := &Mux{conn: conn, pool: pool, push: push, pending: make(map[uint32]chan Message), failed: make(chan struct{})}
	m.reader.Add(1)
	go m.readLoop()
	return m
}

// Err reports why the Mux failed, nil while it is usable.
func (m *Mux) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Failed is closed once the Mux has failed; Err then says why.
func (m *Mux) Failed() <-chan struct{} { return m.failed }

// shut marks the Mux failed with cause and fails every pending call. The
// Mux fails once: later causes are dropped.
func (m *Mux) shut(cause error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return
	}
	m.err = cause
	close(m.failed)
	for seq, ch := range m.pending {
		delete(m.pending, seq)
		close(ch)
	}
}

// fail is shut plus closing the connection, which also ends the reader.
func (m *Mux) fail(cause error) {
	m.shut(cause)
	_ = m.conn.Close()
}

// Close fails pending and future calls with ErrClosed, says goodbye (best
// effort: under the write deadline, and failing at once on a Mux whose
// failure already closed the connection), closes the connection and
// joins the reader.
func (m *Mux) Close() error {
	m.shut(ErrClosed)
	_ = m.conn.Write(Message{Type: TypeGoodbye})
	err := m.conn.Close()
	m.reader.Wait()
	return err
}

// readLoop is the one reader. With no idle timeout on the Conn its read
// blocks for the connection's lifetime: what bounds a caller is its own
// wait, and Close or a failure unblocks the read by closing the conn.
func (m *Mux) readLoop() {
	defer m.reader.Done()
	for {
		msg, err := m.conn.ReadPooled(DefaultMaxPayload, m.pool)
		if err != nil {
			m.fail(err)
			return
		}
		if msg.Seq == 0 {
			if m.push != nil {
				m.push(msg)
			} else {
				m.pool.Put(msg.Payload)
			}
			continue
		}
		m.mu.Lock()
		ch, ok := m.pending[msg.Seq]
		delete(m.pending, msg.Seq)
		m.mu.Unlock()
		if !ok {
			err := fmt.Errorf("wire: reply seq %d matches no pending call", msg.Seq)
			m.pool.Put(msg.Payload)
			m.fail(err)
			return
		}
		ch <- msg // buffered: the slot left pending under mu, so this is its only send
	}
}

// replySlots recycles Call's reply channels. A channel goes back only
// once it has delivered its reply: the reader took it out of pending
// before sending, so nothing else can send on it or close it.
var replySlots = sync.Pool{New: func() any { return make(chan Message, 1) }}

// callTimers recycles the timers that bound Call's waits, so a bounded
// wait allocates nothing per call. Every timer in it is stopped and
// drained.
var callTimers = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// startTimer takes a timer from callTimers and arms it to fire after wait.
func startTimer(wait time.Duration) *time.Timer {
	t := callTimers.Get().(*time.Timer)
	t.Reset(wait)
	return t
}

// Call sends msg under a fresh Seq and returns the reply that echoes it.
// The write is bounded by the Conn (write timeout, tightened to
// msg.Budget), the wait for the reply by wait. Any error is a failure of
// the whole connection (see Mux); a TypeError reply is a reply, and is
// returned as one.
func (m *Mux) Call(msg Message, wait time.Duration) (Message, error) {
	return m.CallParts(msg, wait, msg.Payload)
}

// CallParts is Call with the request payload given as parts, sent as
// Conn.WriteParts sends them; msg.Payload is not sent. The parts are
// not read once the request is written, which happens before it
// returns.
func (m *Mux) CallParts(msg Message, wait time.Duration, parts ...[]byte) (Message, error) {
	msg.Seq = m.seqs.Next()
	ch := replySlots.Get().(chan Message)
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		replySlots.Put(ch)
		return Message{}, err
	}
	m.pending[msg.Seq] = ch
	m.mu.Unlock()

	if err := m.conn.WriteParts(msg, parts...); err != nil {
		// A frame that failed part-way leaves the stream unframed: the
		// connection is gone for everyone, this call's slot included.
		m.fail(err)
	}
	t := startTimer(wait)
	var reply Message
	var ok, expired bool
	for waiting := true; waiting; {
		select {
		case reply, ok = <-ch:
			waiting = false
		case <-t.C:
			// The failure closes ch, unless the reply raced in first;
			// either way the next pass takes it (t.C stays empty now).
			expired = true
			m.fail(fmt.Errorf("wire: call timed out after %v", wait))
		}
	}
	if !expired && !t.Stop() {
		<-t.C // fired unseen between the reply and Stop
	}
	callTimers.Put(t)
	if !ok {
		return Message{}, m.Err()
	}
	replySlots.Put(ch)
	return reply, nil
}

// Server is a running Serve: one accept loop and a handler goroutine per
// live connection.
type Server struct {
	ln net.Listener

	mu sync.Mutex
	// conns is the set of live connections, nil once Close has begun;
	// guarded by mu. wg counts the accept loop and every handler, and is
	// added to only under mu while conns is non-nil, so Close's Wait never
	// races an Add.
	conns map[*Conn]struct{}
	wg    sync.WaitGroup
}

// Serve accepts connections on ln and runs handle on each, in its own
// goroutine, over a Conn with the given idle and write timeouts. The
// connection is closed when handle returns; an error it returns is
// logged unless it is the peer hanging up or the server closing.
func Serve(ln net.Listener, idle, write time.Duration, logf func(string, ...any), handle func(*Conn) error) *Server {
	s := &Server{ln: ln, conns: make(map[*Conn]struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				if s.open() {
					logf("wire: accept on %s: %v", s.Addr(), err)
				}
				return
			}
			c := NewConn(nc, idle, write)
			if !s.track(c) {
				_ = c.Close()
				return
			}
			go func() {
				defer s.wg.Done()
				err := handle(c)
				_ = c.Close()
				s.mu.Lock()
				delete(s.conns, c) // a no-op on the nil map of a closing server
				s.mu.Unlock()
				if err != nil && s.open() && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
					logf("wire: %s: conn %s: %v", s.Addr(), c.RemoteAddr(), err)
				}
			}()
		}
	}()
	return s
}

// open reports whether Close has yet to begin.
func (s *Server) open() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conns != nil
}

// track counts c and its handler in, unless Close has begun.
func (s *Server) track(c *Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conns == nil {
		return false
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	return true
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes every live connection — a handler parked
// in a read returns at once instead of at its idle timeout — and waits
// for the accept loop and all handlers. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	if conns == nil {
		return nil
	}
	err := s.ln.Close()
	for c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}
