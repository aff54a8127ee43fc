package wire

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/par"
)

// The connection-layer tests run over net.Pipe: synchronous, in memory,
// deadline-capable, so a peer that stops reading really does block a
// write, and nothing below depends on a sleep.

// testTimeout is the watchdog on steps that must not hang; it is never
// waited out by a passing test.
const testTimeout = 5 * time.Second

// muxPair returns a Mux over one end of a pipe and a Conn for the test
// to play the peer on the other.
func muxPair(t *testing.T, push func(Message)) (*Mux, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	m := NewMux(NewConn(a, 0, testTimeout), nil, push)
	peer := NewConn(b, testTimeout, testTimeout)
	t.Cleanup(func() {
		_ = peer.Close()
		_ = m.Close()
	})
	return m, peer
}

// callResult is what one concurrent Call returned.
type callResult struct {
	reply Message
	err   error
}

// startCalls issues n concurrent Calls, call i carrying payload {i}, and
// returns the slots their results land in plus the WaitGroup that says
// when.
func startCalls(m *Mux, n int, wait time.Duration) ([]callResult, *sync.WaitGroup) {
	results := make([]callResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i].reply, results[i].err = m.Call(Message{Type: TypePing, Payload: []byte{byte(i)}}, wait)
		}(i)
	}
	return results, &wg
}

// readRequests reads n frames off peer.
func readRequests(t *testing.T, peer *Conn, n int) []Message {
	t.Helper()
	reqs := make([]Message, n)
	for i := range reqs {
		var err error
		if reqs[i], err = peer.Read(DefaultMaxPayload); err != nil {
			t.Fatalf("peer read %d: %v", i, err)
		}
	}
	return reqs
}

func TestMuxRoutesRepliesArrivingInReverseOrder(t *testing.T) {
	const n = 8
	m, peer := muxPair(t, nil)
	results, wg := startCalls(m, n, testTimeout)
	reqs := readRequests(t, peer, n)
	seen := map[uint32]bool{}
	for _, r := range reqs {
		if r.Seq == 0 || seen[r.Seq] {
			t.Fatalf("request Seq %d is zero or reused", r.Seq)
		}
		seen[r.Seq] = true
	}
	for i := n - 1; i >= 0; i-- {
		if err := peer.Write(Message{Type: TypePong, Seq: reqs[i].Seq, Payload: reqs[i].Payload}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("call %d: %v", i, r.err)
		}
		if len(r.reply.Payload) != 1 || r.reply.Payload[0] != byte(i) {
			t.Errorf("call %d got the reply to call %v: replies crossed", i, r.reply.Payload)
		}
	}
}

func TestMuxTransportErrorFailsEveryPendingCallAndLaterOnesFast(t *testing.T) {
	const n = 6
	m, peer := muxPair(t, nil)
	results, wg := startCalls(m, n, time.Hour) // only the failure can end these waits
	readRequests(t, peer, n)
	_ = peer.Close()
	wg.Wait()
	cause := m.Err()
	if cause == nil {
		t.Fatal("Mux still usable after its transport closed")
	}
	for i, r := range results {
		if !errors.Is(r.err, cause) {
			t.Errorf("call %d: err = %v, want the Mux's cause %v", i, r.err, cause)
		}
	}
	select {
	case <-m.Failed():
	default:
		t.Error("Failed not closed after the failure")
	}
	m.mu.Lock()
	left := len(m.pending)
	m.mu.Unlock()
	if left != 0 {
		t.Errorf("%d slots still pending after the failure", left)
	}
	// A later call fails with the same cause without waiting: with an
	// hour's wait, only the fast path can return inside the watchdog.
	late := make(chan error, 1)
	go func() {
		_, err := m.Call(Message{Type: TypePing}, time.Hour)
		late <- err
	}()
	select {
	case err := <-late:
		if !errors.Is(err, cause) {
			t.Errorf("call after failure: %v, want %v", err, cause)
		}
	case <-time.After(testTimeout):
		t.Error("call after failure is waiting for a reply instead of failing fast")
	}
}

func TestMuxCloseSaysGoodbyeAndCallAfterCloseFails(t *testing.T) {
	m, peer := muxPair(t, nil)
	got := make(chan Message, 1)
	go func() {
		msg, _ := peer.Read(DefaultMaxPayload)
		got <- msg
	}()
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if msg := <-got; msg.Type != TypeGoodbye {
		t.Errorf("peer read %v on close, want goodbye", msg.Type)
	}
	if _, err := m.Call(Message{Type: TypePing}, time.Hour); !errors.Is(err, ErrClosed) {
		t.Errorf("call after close: %v, want ErrClosed", err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// lingeringConn is a net.Conn whose reads linger a while after failing,
// as a read unwinding through a wrapper may, and which counts the reads
// still running.
type lingeringConn struct {
	net.Conn
	entered chan struct{} // closed by the first Read
	once    sync.Once
	reading atomic.Int32
}

func (c *lingeringConn) Read(p []byte) (int, error) {
	c.reading.Add(1)
	defer c.reading.Add(-1)
	c.once.Do(func() { close(c.entered) })
	n, err := c.Conn.Read(p)
	if err != nil {
		time.Sleep(100 * time.Millisecond)
	}
	return n, err
}

// TestMuxCloseJoinsItsReader pins that Close returns only once the
// reader goroutine is done with the conn.
func TestMuxCloseJoinsItsReader(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	go func() { _, _ = io.Copy(io.Discard, b) }() // takes the goodbye
	lc := &lingeringConn{Conn: a, entered: make(chan struct{})}
	m := NewMux(NewConn(lc, 0, testTimeout), nil, nil)
	select {
	case <-lc.entered:
	case <-time.After(testTimeout):
		t.Fatal("the reader never started reading")
	}
	if err := returnsWithin(t, "Mux.Close", m.Close); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n := lc.reading.Load(); n != 0 {
		t.Errorf("Close returned with %d read(s) still running on the conn: the reader was not joined", n)
	}
}

func TestMuxSeqZeroFramesGoToPushNeverToACaller(t *testing.T) {
	pushed := make(chan Message, 4)
	m, peer := muxPair(t, func(msg Message) { pushed <- msg })
	results, wg := startCalls(m, 1, testTimeout)
	req := readRequests(t, peer, 1)[0]
	for _, out := range []Message{
		{Type: TypeChunkData, StreamID: 7, Payload: []byte("before")},
		{Type: TypePong, Seq: req.Seq, Payload: []byte("reply")},
		{Type: TypeChunkData, StreamID: 7, Payload: []byte("after")},
	} {
		if err := peer.Write(out); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if r := results[0]; r.err != nil || string(r.reply.Payload) != "reply" {
		t.Errorf("caller got %q, %v; want its own reply", r.reply.Payload, r.err)
	}
	for _, want := range []string{"before", "after"} {
		if msg := <-pushed; msg.Seq != 0 || string(msg.Payload) != want {
			t.Errorf("push = seq %d %q, want seq 0 %q", msg.Seq, msg.Payload, want)
		}
	}
	// Without a callback a Seq-0 frame is dropped and the connection lives.
	m2, peer2 := muxPair(t, nil)
	results, wg = startCalls(m2, 1, testTimeout)
	req = readRequests(t, peer2, 1)[0]
	_ = peer2.Write(Message{Type: TypeChunkData})
	_ = peer2.Write(Message{Type: TypePong, Seq: req.Seq})
	wg.Wait()
	if results[0].err != nil {
		t.Errorf("call beside an unclaimed push: %v", results[0].err)
	}
}

// TestMuxPooledPayloadsHaveOneOwner: with a pool, the reader borrows each
// payload for whoever the frame goes to, and puts back the ones nobody
// receives: a Seq-0 frame with no callback, and a reply that matches no
// call (which also fails the connection).
func TestMuxPooledPayloadsHaveOneOwner(t *testing.T) {
	var pool par.SlabPool[byte]
	a, b := net.Pipe()
	m := NewMux(NewConn(a, 0, testTimeout), &pool, nil)
	peer := NewConn(b, testTimeout, testTimeout)
	t.Cleanup(func() {
		_ = peer.Close()
		_ = m.Close()
	})
	results, wg := startCalls(m, 1, testTimeout)
	req := readRequests(t, peer, 1)[0]
	_ = peer.Write(Message{Type: TypeChunkData, Payload: []byte("unclaimed")})
	_ = peer.Write(Message{Type: TypePong, Seq: req.Seq, Payload: []byte("reply")})
	wg.Wait()
	if r := results[0]; r.err != nil || string(r.reply.Payload) != "reply" {
		t.Fatalf("caller got %q, %v; want its own reply", r.reply.Payload, r.err)
	}
	if n := pool.Outstanding(); n != 1 {
		t.Fatalf("%d payloads borrowed after a reply and an unclaimed push, want the reply's 1", n)
	}
	pool.Put(results[0].reply.Payload)
	_ = peer.Write(Message{Type: TypePong, Seq: req.Seq + 1000, Payload: []byte("stray")})
	<-m.Failed()
	if n := pool.Outstanding(); n != 0 {
		t.Errorf("%d payloads borrowed after the unmatched reply failed the Mux, want 0", n)
	}
}

// TestMuxExpiredWaitFailsTheConnection pins the first of Mux's two
// rules: one call outliving its wait fails every other pending call too.
func TestMuxExpiredWaitFailsTheConnection(t *testing.T) {
	m, peer := muxPair(t, nil)
	patient, wg := startCalls(m, 1, time.Hour)
	readRequests(t, peer, 1)
	done := make(chan error, 1)
	go func() {
		_, err := m.Call(Message{Type: TypePing}, 10*time.Millisecond)
		done <- err
	}()
	readRequests(t, peer, 1) // taken, never answered
	if err := <-done; err == nil || m.Err() == nil {
		t.Fatalf("call past its wait: err = %v, Mux err = %v; want both set", err, m.Err())
	}
	wg.Wait()
	if !errors.Is(patient[0].err, m.Err()) {
		t.Errorf("the patient call beside it: %v, want the timeout's failure %v", patient[0].err, m.Err())
	}
}

// TestMuxUnmatchedReplyFailsTheConnection pins the second rule.
func TestMuxUnmatchedReplyFailsTheConnection(t *testing.T) {
	m, peer := muxPair(t, nil)
	results, wg := startCalls(m, 1, time.Hour)
	req := readRequests(t, peer, 1)[0]
	if err := peer.Write(Message{Type: TypePong, Seq: req.Seq + 1000}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if results[0].err == nil || m.Err() == nil {
		t.Fatalf("after a reply nobody asked for: call err = %v, Mux err = %v; want both set", results[0].err, m.Err())
	}
}

// TestMuxTimersAreReused: a call's wait draws its timer from the pool, so
// over the same exchange done by hand on a bare Conn a Call allocates its
// reply slot and nothing else.
func TestMuxTimersAreReused(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	echo := func(peer *Conn) {
		for {
			req, err := peer.Read(DefaultMaxPayload)
			if err != nil || peer.Write(Message{Type: TypePong, Seq: req.Seq}) != nil {
				return
			}
		}
	}
	a, b := net.Pipe()
	bare, barePeer := NewConn(a, 0, testTimeout), NewConn(b, testTimeout, testTimeout) // as muxPair makes them
	defer bare.Close()
	defer barePeer.Close()
	go echo(barePeer)
	byHand := testing.AllocsPerRun(200, func() {
		if err := bare.Write(Message{Type: TypePing, Seq: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := bare.Read(DefaultMaxPayload); err != nil {
			t.Fatal(err)
		}
	})
	m, peer := muxPair(t, nil)
	go echo(peer)
	call := func() {
		if _, err := m.Call(Message{Type: TypePing}, testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	call() // the first call makes the pool's timer
	// The slot is a buffered channel of a pointer-carrying type: two
	// allocations, header and buffer.
	if called := testing.AllocsPerRun(200, call); called > byHand+2 {
		t.Errorf("a Call allocates %.0f, the bare exchange %.0f: more than the reply slot, so the timer is not reused", called, byHand)
	}
}

// tcpPair returns the two ends of a loopback TCP connection, closed when
// the test ends.
func tcpPair(tb testing.TB) (net.Conn, net.Conn) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	b := <-accepted
	if b == nil {
		tb.Fatal("accept failed")
	}
	tb.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b
}

// frameTransports are the two ways a Conn's frame reaches the kernel: one
// writev on a TCP connection, or one Write per part on any other net.Conn
// (net.Pipe here; fault-injecting and tracing wrappers in practice). Each
// returns a Conn to write with and the raw end its bytes arrive at.
var frameTransports = []struct {
	name  string
	conns func(testing.TB) (*Conn, net.Conn)
}{
	{"tcp", func(tb testing.TB) (*Conn, net.Conn) {
		a, b := tcpPair(tb)
		return NewConn(a, 0, testTimeout), b
	}},
	{"pipe", func(tb testing.TB) (*Conn, net.Conn) {
		a, b := net.Pipe()
		tb.Cleanup(func() {
			_ = a.Close()
			_ = b.Close()
		})
		return NewConn(a, 0, testTimeout), b
	}},
}

// written runs write on c and returns the n bytes that arrive at peer.
func written(tb testing.TB, c *Conn, peer net.Conn, n int, write func(*Conn) error) []byte {
	tb.Helper()
	errc := make(chan error, 1)
	go func() { errc <- write(c) }()
	got := make([]byte, n)
	_ = peer.SetReadDeadline(time.Now().Add(testTimeout))
	if _, err := io.ReadFull(peer, got); err != nil {
		tb.Fatalf("read %d frame bytes: %v", n, err)
	}
	if err := <-errc; err != nil {
		tb.Fatal(err)
	}
	return got
}

// TestConnFrameIOAllocs pins what a frame costs on the heap over TCP: a
// write of any shape nothing — a vectored anchor batch of a dozen parts
// included, once the Conn has written one — a Read its payload and
// nothing else, and a warm ReadPooled nothing beyond the pool's own
// Get/Put cycle.
func TestConnFrameIOAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	const runs = 50
	container := bytes.Repeat([]byte{7}, 1000)
	payload := EncodeChunkData(ChunkData{Seq: 1, Data: container})
	prefix := payload[:len(payload)-1]
	crcPrefix := crc32.ChecksumIEEE(prefix)
	m := Message{Type: TypeChunkData, StreamID: 2, Seq: 3, Budget: time.Second}
	full := m
	full.Payload = payload

	a, b := tcpPair(t)
	w := NewConn(a, testTimeout, testTimeout)
	go func() { // drains into one buffer, so it allocates nothing either
		buf := make([]byte, 64<<10)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	jobs, _ := batchFixtures()
	var jobVec Vec
	jobVec.PutAnchorBatchJob(jobs)
	if n := testing.AllocsPerRun(runs, func() {
		if err := w.Write(full); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteParts(Message{Type: TypeAnchorBatchJob, Seq: 4}, jobVec.Parts()...); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteShared(m, prefix, ChunkDataTail(false, true), crcPrefix); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteChunkData(m, ChunkData{Seq: 1, Data: container}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("four Conn writes allocate %.0f, want 0", n)
	}

	// Every frame the reads below take is on the socket before they start.
	small := m
	small.Payload = EncodeChunkData(ChunkData{Seq: 1, Data: container[:64]})
	var one bytes.Buffer
	if err := Write(&one, small); err != nil {
		t.Fatal(err)
	}
	a2, b2 := tcpPair(t)
	if _, err := a2.Write(bytes.Repeat(one.Bytes(), 2*(runs+1))); err != nil {
		t.Fatal(err)
	}
	r := NewConn(b2, testTimeout, testTimeout)
	if n := testing.AllocsPerRun(runs, func() {
		if msg, err := r.Read(DefaultMaxPayload); err != nil || !bytes.Equal(msg.Payload, small.Payload) {
			t.Fatalf("read: %v", err)
		}
	}); n != 1 {
		t.Errorf("a Read allocates %.0f, want 1 (the payload)", n)
	}
	var pool par.SlabPool[byte]
	cycle := testing.AllocsPerRun(runs, func() { pool.Put(pool.Get(len(small.Payload))) })
	if n := testing.AllocsPerRun(runs, func() {
		msg, err := r.ReadPooled(DefaultMaxPayload, &pool)
		if err != nil || !bytes.Equal(msg.Payload, small.Payload) {
			t.Fatalf("pooled read: %v", err)
		}
		pool.Put(msg.Payload)
	}); n != cycle {
		t.Errorf("a warm ReadPooled and its Put allocate %.0f, the pool's Get/Put cycle alone %.0f", n, cycle)
	}
}

// connWrites are the three ways to write a frame on a Conn. Each goes
// through writeLocked, which arms the write deadline.
var connWrites = []struct {
	name  string
	write func(*Conn, Message) error
}{
	{"Write", (*Conn).Write},
	{"WriteShared", func(c *Conn, m Message) error {
		return c.WriteShared(m, m.Payload, nil, crc32.ChecksumIEEE(m.Payload))
	}},
	{"WriteChunkData", func(c *Conn, m Message) error {
		return c.WriteChunkData(m, ChunkData{Seq: 1, Data: []byte("container")})
	}},
}

// returnsWithin runs op and returns its error, failing the test if op
// has not returned within testTimeout: a missing deadline fails here
// instead of hanging the test binary.
func returnsWithin(t *testing.T, what string, op func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- op() }()
	select {
	case err := <-done:
		return err
	case <-time.After(testTimeout):
		t.Fatalf("%s never returned: no deadline bounds it", what)
		return nil
	}
}

func TestConnWriteToStalledPeerTimesOutAndReleasesTheLock(t *testing.T) {
	for _, w := range connWrites {
		t.Run(w.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer b.Close() // b never reads
			c := NewConn(a, 0, 20*time.Millisecond)
			defer c.Close()
			// The second write fails the same way only if the first one
			// gave the write lock back.
			for i := 0; i < 2; i++ {
				err := returnsWithin(t, fmt.Sprintf("write %d to a stalled peer", i), func() error {
					return w.write(c, Message{Type: TypePing})
				})
				var ne net.Error
				if !errors.As(err, &ne) || !ne.Timeout() {
					t.Errorf("write %d to a stalled peer: %v, want a timeout", i, err)
				}
			}
			// A frame's own budget tightens the bound: an hour's write
			// timeout, a 20 ms budget, and the write still gives up.
			a2, b2 := net.Pipe()
			defer b2.Close()
			c2 := NewConn(a2, 0, time.Hour)
			defer c2.Close()
			if err := returnsWithin(t, "a budgeted write to a stalled peer", func() error {
				return w.write(c2, Message{Type: TypeChunk, Budget: 20 * time.Millisecond})
			}); err == nil {
				t.Error("budgeted write to a stalled peer succeeded")
			}
		})
	}
}

// TestConnReadIdleTimeout pins the deadline on every read a Conn makes:
// Read and ReadPooled wait at most the idle timeout for a silent peer,
// and RoundTrip at most its deadline for the reply.
func TestConnReadIdleTimeout(t *testing.T) {
	const idle = 20 * time.Millisecond
	var pool par.SlabPool[byte]
	for _, tc := range []struct {
		name string
		read func(*Conn) error
	}{
		{"Read", func(c *Conn) error {
			_, err := c.Read(DefaultMaxPayload)
			return err
		}},
		{"ReadPooled", func(c *Conn) error {
			_, err := c.ReadPooled(DefaultMaxPayload, &pool)
			return err
		}},
		{"RoundTrip", func(c *Conn) error {
			_, err := c.RoundTrip(Message{Type: TypePing}, time.Now().Add(idle), DefaultMaxPayload, &pool)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer b.Close()
			go func() { _, _ = io.Copy(io.Discard, b) }() // b takes any request and never answers
			c := NewConn(a, idle, 0)
			defer c.Close()
			err := returnsWithin(t, "a read from a silent peer", func() error { return tc.read(c) })
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Errorf("read from a silent peer: %v, want a timeout", err)
			}
		})
	}
}

// pipeListener is a net.Listener whose connections are net.Pipe ends.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial hands one end of a new pipe to Accept and returns the other, or
// nil once the listener is closed.
func (l *pipeListener) dial() net.Conn {
	a, b := net.Pipe()
	select {
	case l.conns <- a:
		return b
	case <-l.closed:
		a.Close()
		b.Close()
		return nil
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func TestServeCloseJoinsHandlersParkedInRead(t *testing.T) {
	const n = 3
	ln := newPipeListener()
	var logged atomic.Int32
	logf := func(string, ...any) { logged.Add(1) }
	var entered sync.WaitGroup
	entered.Add(n)
	var exited atomic.Int32
	srv := Serve(ln, 0, testTimeout, logf, func(c *Conn) error {
		defer exited.Add(1)
		if _, err := c.Read(DefaultMaxPayload); err != nil { // the hello below
			return err
		}
		entered.Done()
		_, err := c.Read(DefaultMaxPayload) // parked: no idle timeout, a silent peer
		return err
	})
	peers := make([]net.Conn, n)
	for i := range peers {
		peers[i] = ln.dial()
		defer peers[i].Close()
		if err := Write(peers[i], Message{Type: TypeHello}); err != nil {
			t.Fatal(err)
		}
	}
	entered.Wait()

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("close: %v", err)
		}
	case <-time.After(testTimeout):
		t.Fatal("Close did not return with handlers parked in reads: it closed the listener but not the connections")
	}
	if got := exited.Load(); got != n {
		t.Errorf("%d of %d handlers had returned when Close did", got, n)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if got := logged.Load(); got != 0 {
		t.Errorf("%d log lines for handlers ended by Close, want none", got)
	}
	if c := ln.dial(); c != nil {
		t.Error("listener still accepting after Close")
	}
}

func TestServeLogsHandlerErrorsButNotHangups(t *testing.T) {
	ln := newPipeListener()
	logs := make(chan string, 4)
	logf := func(format string, args ...any) { logs <- fmt.Sprintf(format, args...) }
	boom := errors.New("boom")
	handled := make(chan struct{}, 2)
	srv := Serve(ln, 0, testTimeout, logf, func(c *Conn) error {
		defer func() { handled <- struct{}{} }()
		msg, err := c.Read(DefaultMaxPayload)
		if err != nil {
			return err // the peer hung up: not worth a line
		}
		if msg.Type == TypePing {
			return boom
		}
		return nil
	})
	hangup := ln.dial()
	hangup.Close()
	<-handled
	rude := ln.dial()
	defer rude.Close()
	if err := Write(rude, Message{Type: TypePing}); err != nil {
		t.Fatal(err)
	}
	<-handled
	// Serve logs after the handler has returned, and not once Close has
	// begun: wait for the line before closing.
	var lines []string
	select {
	case l := <-logs:
		lines = append(lines, l)
	case <-time.After(testTimeout):
	}
	if err := srv.Close(); err != nil { // joins the handlers, so every line is in
		t.Fatal(err)
	}
	close(logs)
	for l := range logs {
		lines = append(lines, l)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "boom") {
		t.Errorf("log = %q, want exactly the handler's own error", lines)
	}
}
