package media

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/icodec"
	"github.com/neuroscaler/neuroscaler/internal/sr"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// ErrEnhancerUnavailable reports a transport-level enhancer failure:
// the replica is unreachable, timed out, or dropped the connection. The
// server treats it (like any enhancement error) as an anchor drop and
// degrades the chunk instead of failing it.
var ErrEnhancerUnavailable = errors.New("media: enhancer unavailable")

const (
	// DefaultIdleTimeout bounds the wait for the next request frame on
	// ingest and enhancer connections (slowloris guard).
	DefaultIdleTimeout = 2 * time.Minute
	// DefaultWriteTimeout bounds each reply write.
	DefaultWriteTimeout = 30 * time.Second
	// DefaultEnhancerJobConcurrency is the per-connection bound on anchor
	// jobs an EnhancerServer processes concurrently: the per-replica
	// concurrency a multiplexing client can extract from one replica.
	DefaultEnhancerJobConcurrency = 4
	// DefaultEnhancerJobQueueDepth bounds the per-connection backlog of
	// anchor dispatches waiting for a worker. Beyond it the replica sheds
	// (typed ErrShed reply) instead of queueing without bound — queue
	// delay a replica can never serve within a deadline is better spent
	// telling the pool to fail over.
	DefaultEnhancerJobQueueDepth = 64
)

// pickTimeout resolves a configured timeout: zero selects the default,
// negative disables the bound.
func pickTimeout(configured, def time.Duration) time.Duration {
	if configured == 0 {
		return def
	}
	if configured < 0 {
		return 0
	}
	return configured
}

// AnchorEnhancer super-resolves and image-encodes one anchor frame. The
// media server is configured with one (local, remote, or a pool).
type AnchorEnhancer interface {
	Enhance(streamID uint32, job wire.AnchorJob) (wire.AnchorResult, error)
}

// AnchorOutcome is one anchor's result within a batch, the same value
// in process and on the wire.
type AnchorOutcome = wire.AnchorOutcome

// BatchAnchorEnhancer is an AnchorEnhancer that can coalesce several
// anchors into one dispatch (one wire round trip for a remote, one
// device dispatch for a local engine). EnhanceBatch returns one outcome
// per job, in job order; the error return is batch-level (transport or
// protocol failure voiding every outcome). A batch of one must behave
// exactly like Enhance.
type BatchAnchorEnhancer interface {
	AnchorEnhancer
	EnhanceBatch(streamID uint32, jobs []wire.AnchorJob) ([]AnchorOutcome, error)
}

// enhanceGroup runs jobs on e as one dispatch, the only way the server
// and the pool hand anchors to an enhancer: EnhanceBatch when e has it,
// otherwise one concurrent Enhance per job. It returns one outcome per
// job, in job order; a non-nil error voids the whole group and the
// outcomes with it.
func enhanceGroup(e AnchorEnhancer, streamID uint32, jobs []wire.AnchorJob) ([]AnchorOutcome, error) {
	if be, ok := e.(BatchAnchorEnhancer); ok {
		outs, err := be.EnhanceBatch(streamID, jobs)
		if err == nil && len(outs) != len(jobs) {
			err = fmt.Errorf("media: enhancer returned %d outcomes for %d jobs", len(outs), len(jobs))
		}
		return outs, err
	}
	outs := make([]AnchorOutcome, len(jobs))
	var wg sync.WaitGroup
	for i := 1; i < len(jobs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i].Res, outs[i].Err = e.Enhance(streamID, jobs[i])
		}(i)
	}
	outs[0].Res, outs[0].Err = e.Enhance(streamID, jobs[0])
	wg.Wait()
	return outs, nil
}

// registrar is implemented by enhancers needing per-stream registration.
type registrar interface {
	Register(uint32, wire.Hello) error
}

// pinger is implemented by enhancers that support liveness probes.
type pinger interface {
	Ping() error
}

// ModelProvider resolves the content-aware model for a stream. In the
// paper the DNN's weights travel with the stream; in this reproduction
// the oracle model's "weights" are the HR source, so deployments register
// models out of band (see DESIGN.md's substitution notes).
type ModelProvider func(streamID uint32, h wire.Hello) (sr.Model, error)

// LocalEnhancer runs enhancement in-process.
type LocalEnhancer struct {
	provider ModelProvider

	mu     sync.Mutex
	models map[uint32]sr.Model
}

// NewLocalEnhancer returns an enhancer resolving models via provider.
func NewLocalEnhancer(provider ModelProvider) (*LocalEnhancer, error) {
	if provider == nil {
		return nil, errors.New("media: nil model provider")
	}
	return &LocalEnhancer{provider: provider, models: make(map[uint32]sr.Model)}, nil
}

// Register binds a stream to its model ahead of the first job.
func (e *LocalEnhancer) Register(streamID uint32, h wire.Hello) error {
	m, err := e.provider(streamID, h)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.models[streamID] = m
	e.mu.Unlock()
	return nil
}

// Enhance implements AnchorEnhancer. A job whose deadline has already
// passed is skipped with ErrDeadlineExceeded before any inference runs:
// enhancing a frame nobody can ship is pure waste under overload.
func (e *LocalEnhancer) Enhance(streamID uint32, job wire.AnchorJob) (wire.AnchorResult, error) {
	if expired(job.Deadline, time.Now()) {
		return wire.AnchorResult{}, fmt.Errorf("media: enhance stream %d packet %d: %w", streamID, job.Packet, ErrDeadlineExceeded)
	}
	e.mu.Lock()
	m, ok := e.models[streamID]
	e.mu.Unlock()
	if !ok {
		return wire.AnchorResult{}, fmt.Errorf("media: no model registered for stream %d", streamID)
	}
	hr, err := m.Apply(job.Frame, job.DisplayIndex)
	if err != nil {
		return wire.AnchorResult{}, fmt.Errorf("media: enhance stream %d packet %d: %w", streamID, job.Packet, err)
	}
	data, _, err := icodec.Encode(hr, icodec.Options{Quality: job.QP})
	if err != nil {
		return wire.AnchorResult{}, err
	}
	return wire.AnchorResult{Packet: job.Packet, Encoded: data}, nil
}

// EnhanceBatch implements BatchAnchorEnhancer: jobs are processed as one
// dispatch with per-anchor error isolation, so one failing anchor never
// poisons its batch siblings.
func (e *LocalEnhancer) EnhanceBatch(streamID uint32, jobs []wire.AnchorJob) ([]AnchorOutcome, error) {
	outs := make([]AnchorOutcome, len(jobs))
	for i, job := range jobs {
		outs[i].Res, outs[i].Err = e.Enhance(streamID, job)
	}
	return outs, nil
}

// EnhancerServerConfig tunes an enhancer service endpoint.
type EnhancerServerConfig struct {
	// IdleTimeout bounds the wait for the next request on a connection;
	// zero uses DefaultIdleTimeout, negative disables the bound.
	IdleTimeout time.Duration
	// WriteTimeout bounds each reply write; zero uses
	// DefaultWriteTimeout, negative disables the bound.
	WriteTimeout time.Duration
	// MaxConcurrentJobs bounds how many anchor jobs one connection may
	// have in flight at once (a multiplexing client pipelines up to this
	// many RPCs through one replica). Zero uses
	// DefaultEnhancerJobConcurrency; 1 or negative serializes jobs.
	MaxConcurrentJobs int
	// JobQueueDepth bounds the per-connection backlog of dispatches
	// waiting for a worker; a full queue sheds new jobs with a typed
	// ErrShed reply instead of queueing without bound. Zero uses
	// DefaultEnhancerJobQueueDepth; 1 or negative allows one waiter.
	JobQueueDepth int
	// Logf receives diagnostics; nil uses the standard logger.
	Logf func(string, ...any)
}

// EnhancerServerCounters snapshots one replica's overload-control
// activity: jobs rejected at admission (queue full) and jobs dropped at
// dequeue because their deadline had already expired.
type EnhancerServerCounters struct {
	JobsShed    uint64 `json:"jobs_shed"`
	JobsExpired uint64 `json:"jobs_expired"`
}

// EnhancerServer exposes a LocalEnhancer over TCP using the wire
// protocol: Hello registers the stream, AnchorBatchJob frames (a batch
// may be of one) are answered with AnchorBatchResult frames, Ping frames
// with Pong (heartbeats). Batches on one connection are served
// concurrently (bounded by MaxConcurrentJobs) and replies carry the
// request's Seq, so clients must demultiplex by Seq rather than assuming
// FIFO replies.
type EnhancerServer struct {
	enhancer *LocalEnhancer
	ln       net.Listener
	cfg      EnhancerServerConfig

	jobsShed    atomic.Uint64
	jobsExpired atomic.Uint64

	wg     sync.WaitGroup
	closed chan struct{}
}

// Counters snapshots the server's overload-control counters.
func (s *EnhancerServer) Counters() EnhancerServerCounters {
	return EnhancerServerCounters{
		JobsShed:    s.jobsShed.Load(),
		JobsExpired: s.jobsExpired.Load(),
	}
}

// NewEnhancerServer starts serving on addr (use "127.0.0.1:0" for tests)
// with default timeouts.
func NewEnhancerServer(addr string, enhancer *LocalEnhancer, logf func(string, ...any)) (*EnhancerServer, error) {
	return NewEnhancerServerWith(addr, enhancer, EnhancerServerConfig{Logf: logf})
}

// NewEnhancerServerWith starts serving on addr with explicit timeouts.
func NewEnhancerServerWith(addr string, enhancer *LocalEnhancer, cfg EnhancerServerConfig) (*EnhancerServer, error) {
	if enhancer == nil {
		return nil, errors.New("media: nil enhancer")
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	cfg.IdleTimeout = pickTimeout(cfg.IdleTimeout, DefaultIdleTimeout)
	cfg.WriteTimeout = pickTimeout(cfg.WriteTimeout, DefaultWriteTimeout)
	if cfg.MaxConcurrentJobs == 0 {
		cfg.MaxConcurrentJobs = DefaultEnhancerJobConcurrency
	}
	if cfg.MaxConcurrentJobs < 1 {
		cfg.MaxConcurrentJobs = 1
	}
	if cfg.JobQueueDepth == 0 {
		cfg.JobQueueDepth = DefaultEnhancerJobQueueDepth
	}
	if cfg.JobQueueDepth < 1 {
		cfg.JobQueueDepth = 1
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("media: enhancer listen: %w", err)
	}
	s := &EnhancerServer{enhancer: enhancer, ln: ln, cfg: cfg, closed: make(chan struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *EnhancerServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server and waits for connection handlers to drain.
func (s *EnhancerServer) Close() error {
	close(s.closed)
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *EnhancerServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				s.cfg.Logf("media: enhancer accept: %v", err)
				return
			}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			if err := s.serveConn(conn); err != nil {
				s.cfg.Logf("media: enhancer conn %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// connWriter serializes frame writes on one connection, each under the
// configured write deadline, so concurrent reply producers (job
// goroutines, the read loop) never interleave frame bytes.
type connWriter struct {
	mu      sync.Mutex
	conn    net.Conn
	timeout time.Duration
}

func (w *connWriter) write(msg wire.Message) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.timeout > 0 {
		_ = w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	}
	err := wire.Write(w.conn, msg)
	if w.timeout > 0 {
		_ = w.conn.SetWriteDeadline(time.Time{})
	}
	return err
}

func (w *connWriter) writeError(msg wire.Message, cause error) error {
	return w.write(errorReply(msg, cause))
}

// errorReply is the TypeError frame answering msg with cause.
func errorReply(msg wire.Message, cause error) wire.Message {
	return wire.Message{
		Type:     wire.TypeError,
		StreamID: msg.StreamID,
		Seq:      msg.Seq,
		Payload:  []byte(cause.Error()),
	}
}

// serveConn demultiplexes one client connection: hellos and pings are
// answered inline (a hello must land before the jobs that rely on it),
// anchor batches land in a bounded earliest-deadline-first queue served
// by MaxConcurrentJobs workers that reply with the batch's Seq on
// completion. A full queue sheds the batch with a typed ErrShed reply,
// and workers drop entries whose deadline expired while queued with a
// typed ErrDeadlineExceeded reply — replies are demultiplexed by Seq,
// so out-of-order shed/expiry answers are harmless. Job-level failures
// (unregistered stream, model error) ride back as that anchor's outcome
// inside the batch result, leaving its siblings and the connection
// untouched; protocol-level failures (undecodable payloads, unexpected
// types) drop the connection.
func (s *EnhancerServer) serveConn(conn net.Conn) error {
	w := &connWriter{conn: conn, timeout: s.cfg.WriteTimeout}
	queue := newJobQueue(s.cfg.JobQueueDepth)
	var jobs sync.WaitGroup
	defer jobs.Wait()
	defer queue.close()
	for i := 0; i < s.cfg.MaxConcurrentJobs; i++ {
		jobs.Add(1)
		go func() {
			defer jobs.Done()
			s.jobWorker(queue, w)
		}()
	}
	for {
		if s.cfg.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		msg, err := wire.Read(conn, wire.DefaultMaxPayload)
		if err != nil {
			if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		switch msg.Type {
		case wire.TypeHello:
			h, err := wire.DecodeHello(msg.Payload)
			if err != nil {
				_ = w.writeError(msg, err)
				return err
			}
			if err := s.enhancer.Register(msg.StreamID, h); err != nil {
				if werr := w.writeError(msg, err); werr != nil {
					return werr
				}
				continue
			}
			if err := w.write(wire.Message{Type: wire.TypeAck, StreamID: msg.StreamID, Seq: msg.Seq}); err != nil {
				return err
			}
		case wire.TypeAnchorBatchJob:
			batch, err := wire.DecodeAnchorBatchJob(msg.Payload)
			if err != nil {
				_ = w.writeError(msg, err)
				return err
			}
			// A batch is one dispatch: it occupies a single worker
			// regardless of its size — that amortization is the point of
			// batching (§6.2 context-switch elimination).
			now := time.Now()
			entry := &jobEntry{msg: msg, batch: batch, enqueued: now}
			if msg.Budget > 0 {
				// The wire budget is relative; re-derive the local deadline
				// from arrival time so peer clock skew never leaks in.
				entry.deadline = now.Add(msg.Budget)
				for i := range entry.batch {
					entry.batch[i].Deadline = entry.deadline
				}
			}
			s.admit(queue, w, entry)
		case wire.TypePing:
			if err := w.write(wire.Message{Type: wire.TypePong, StreamID: msg.StreamID, Seq: msg.Seq}); err != nil {
				return err
			}
		case wire.TypeGoodbye:
			return nil
		default:
			err := fmt.Errorf("unexpected message %v", msg.Type)
			_ = w.writeError(msg, err)
			return err
		}
	}
}

// admit pushes one dispatch into the connection's job queue, answering
// a full queue with a typed shed reply so the client's pool fails over
// instead of waiting on a backlog this replica cannot clear in time.
func (s *EnhancerServer) admit(queue *jobQueue, w *connWriter, entry *jobEntry) {
	if queue.push(entry) {
		return
	}
	s.jobsShed.Add(1)
	err := fmt.Errorf("media: job queue full (depth %d): %w", s.cfg.JobQueueDepth, ErrShed)
	if werr := w.writeError(entry.msg, err); werr != nil {
		s.cfg.Logf("media: enhancer reply: %v", werr)
	}
}

// jobWorker serves one connection's queue until it closes, answering
// each dispatch with the request's Seq.
func (s *EnhancerServer) jobWorker(queue *jobQueue, w *connWriter) {
	for {
		e, ok := queue.pop()
		if !ok {
			return
		}
		if err := w.write(s.runBatch(e)); err != nil {
			s.cfg.Logf("media: enhancer reply: %v", err)
		}
	}
}

// runBatch serves one dequeued dispatch and returns its reply frame: a
// typed deadline error when the entry expired in the queue, otherwise the
// per-anchor outcomes of one run on the enhancer.
func (s *EnhancerServer) runBatch(e *jobEntry) wire.Message {
	if expired(e.deadline, time.Now()) {
		s.jobsExpired.Add(1)
		return errorReply(e.msg, fmt.Errorf("media: job expired after %v in queue: %w",
			time.Since(e.enqueued).Round(time.Microsecond), ErrDeadlineExceeded))
	}
	outs, err := s.enhancer.EnhanceBatch(e.msg.StreamID, e.batch)
	if err != nil {
		return errorReply(e.msg, err)
	}
	for i, o := range outs {
		if o.Err != nil {
			if errors.Is(o.Err, ErrDeadlineExceeded) {
				s.jobsExpired.Add(1)
			}
			outs[i].Res = wire.AnchorResult{Packet: e.batch[i].Packet}
		}
	}
	return wire.Message{
		Type:     wire.TypeAnchorBatchResult,
		StreamID: e.msg.StreamID,
		Seq:      e.msg.Seq,
		Payload:  wire.EncodeAnchorBatchResult(outs),
	}
}

// RemoteEnhancer is an AnchorEnhancer backed by an EnhancerServer over
// TCP. It is safe for concurrent callers and multiplexes them: every
// outstanding request is tagged with a unique Seq, writes are serialized
// by a writer lock, and a reader goroutine demultiplexes replies to the
// pending call keyed on that Seq — so many anchor RPCs share one
// connection concurrently, each bounded by the call timeout. A transport
// failure fails every pending call with ErrEnhancerUnavailable and marks
// the connection broken; the next call transparently redials and
// re-registers every known stream before new traffic flows.
type RemoteEnhancer struct {
	addr        string
	callTimeout time.Duration
	dial        func() (net.Conn, error)

	seqs wire.SeqSource

	// writeMu serializes frame writes so concurrent calls never
	// interleave bytes on the wire.
	writeMu sync.Mutex

	mu sync.Mutex
	// Connection and call state, guarded by mu.
	conn    net.Conn
	connGen uint64 // bumps on every (re)connect so stale failures are ignored
	pending map[uint32]chan callReply
	hellos  map[uint32][]byte // encoded hello payloads for re-registration
	closed  bool

	// readerWG joins every readLoop generation at Close: closing the
	// conn fails the blocked read, so the wait is always bounded.
	readerWG sync.WaitGroup
}

// callReply is one demultiplexed outcome: the matched reply frame or the
// transport error that killed the connection while the call was pending.
type callReply struct {
	msg wire.Message
	err error
}

// DialEnhancer connects to an enhancer service with default timeouts.
func DialEnhancer(addr string) (*RemoteEnhancer, error) {
	return DialEnhancerTimeout(addr, 0, 0)
}

// DialEnhancerTimeout connects with a dial timeout and arms every call
// with a read/write deadline. Zero durations select the defaults
// (DefaultWriteTimeout for dialing, DefaultIdleTimeout for calls);
// negative durations disable the bound.
func DialEnhancerTimeout(addr string, dialTimeout, callTimeout time.Duration) (*RemoteEnhancer, error) {
	dialTimeout = pickTimeout(dialTimeout, DefaultWriteTimeout)
	r := &RemoteEnhancer{
		addr:        addr,
		callTimeout: pickTimeout(callTimeout, DefaultIdleTimeout),
		dial:        func() (net.Conn, error) { return dialWire(addr, dialTimeout) },
		pending:     make(map[uint32]chan callReply),
		hellos:      make(map[uint32][]byte),
	}
	r.mu.Lock()
	err := r.reconnectLocked()
	r.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("media: dial enhancer: %w", err)
	}
	return r, nil
}

// Close tears down the connection; pending calls fail. The goodbye
// write happens after the state is detached so a dead peer can only
// cost the write deadline, never stall other callers on r.mu.
func (r *RemoteEnhancer) Close() error {
	r.mu.Lock()
	r.closed = true
	conn := r.conn
	r.conn = nil
	if conn != nil {
		r.failPendingLocked(errors.New("client closed"))
	}
	r.mu.Unlock()
	if conn == nil {
		// A reader from a torn-down generation may still be mid-exit;
		// join it before returning.
		r.readerWG.Wait()
		return nil
	}
	_ = conn.SetWriteDeadline(time.Now().Add(pickTimeout(r.callTimeout, DefaultWriteTimeout)))
	_ = wire.Write(conn, wire.Message{Type: wire.TypeGoodbye})
	err := conn.Close()
	// Join the reader: the closed conn fails its read, failConn sees the
	// detached state and returns, and the loop exits. Pending replies
	// ride buffered channels, so the reader never blocks on delivery.
	r.readerWG.Wait()
	return err
}

// Register announces a stream to the remote enhancer. The hello is
// retained so reconnects can re-register it.
func (r *RemoteEnhancer) Register(streamID uint32, h wire.Hello) error {
	payload, err := wire.EncodeHello(h)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.hellos[streamID] = payload
	r.mu.Unlock()
	reply, err := r.call(wire.Message{Type: wire.TypeHello, StreamID: streamID, Payload: payload})
	if err != nil {
		return err
	}
	if reply.Type != wire.TypeAck {
		return fmt.Errorf("media: register: unexpected reply %v", reply.Type)
	}
	return nil
}

// Enhance implements AnchorEnhancer as a batch of one.
func (r *RemoteEnhancer) Enhance(streamID uint32, job wire.AnchorJob) (wire.AnchorResult, error) {
	outs, err := r.EnhanceBatch(streamID, []wire.AnchorJob{job})
	if err != nil {
		return wire.AnchorResult{}, err
	}
	return outs[0].Res, outs[0].Err
}

// EnhanceBatch implements BatchAnchorEnhancer with a single multiplexed
// round trip: one TypeAnchorBatchJob frame out, one TypeAnchorBatchResult
// frame back, per-anchor outcomes demultiplexed from the reply. Jobs with
// a deadline ship their remaining budget on the wire so the replica can
// queue and expire them deadline-aware; an already-expired batch fails
// locally without spending a round trip (a near-zero budget would only
// trip the call timer and tear down the shared connection). Transport
// failures void the whole batch (wrapped in ErrEnhancerUnavailable);
// per-anchor job failures come back as outcome errors.
func (r *RemoteEnhancer) EnhanceBatch(streamID uint32, jobs []wire.AnchorJob) ([]AnchorOutcome, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	if expired(minJobDeadline(jobs), time.Now()) {
		return nil, fmt.Errorf("media: enhance batch stream %d: %w", streamID, ErrDeadlineExceeded)
	}
	reply, err := r.call(wire.Message{
		Type:     wire.TypeAnchorBatchJob,
		StreamID: streamID,
		Payload:  wire.EncodeAnchorBatchJob(jobs),
		Budget:   jobBudget(minJobDeadline(jobs), time.Now()),
	})
	if err != nil {
		return nil, err
	}
	if reply.Type != wire.TypeAnchorBatchResult {
		return nil, fmt.Errorf("media: enhance batch: unexpected reply %v", reply.Type)
	}
	outs, err := wire.DecodeAnchorBatchResult(reply.Payload)
	if err != nil {
		return nil, err
	}
	if len(outs) != len(jobs) {
		return nil, fmt.Errorf("media: enhance batch: %d outcomes for %d jobs", len(outs), len(jobs))
	}
	for i, o := range outs {
		if o.Err != nil {
			outs[i].Err = remoteError("media: remote", []byte(o.Err.Error()))
		}
	}
	return outs, nil
}

// Ping performs a liveness probe (heartbeat health checks).
func (r *RemoteEnhancer) Ping() error {
	reply, err := r.call(wire.Message{Type: wire.TypePing})
	if err != nil {
		return err
	}
	if reply.Type != wire.TypePong {
		return fmt.Errorf("media: ping: unexpected reply %v", reply.Type)
	}
	return nil
}

// reconnectLocked dials the enhancer, re-registers every known stream
// synchronously on the fresh connection (the reader is not running yet,
// so replies are read inline in order), and only then installs the
// connection and starts its reader goroutine. Callers hold r.mu.
func (r *RemoteEnhancer) reconnectLocked() error {
	conn, err := r.dial()
	if err != nil {
		return err
	}
	for streamID, payload := range r.hellos {
		msg := wire.Message{Type: wire.TypeHello, StreamID: streamID, Seq: r.seqs.Next(), Payload: payload}
		if r.callTimeout > 0 {
			_ = conn.SetDeadline(time.Now().Add(r.callTimeout))
		}
		err := wire.Write(conn, msg)
		var reply wire.Message
		if err == nil {
			reply, err = wire.Read(conn, wire.DefaultMaxPayload)
		}
		if r.callTimeout > 0 {
			_ = conn.SetDeadline(time.Time{})
		}
		if err != nil {
			conn.Close()
			return fmt.Errorf("re-register stream %d: %w", streamID, err)
		}
		// A protocol-level rejection (e.g. the replica cannot resolve the
		// model) leaves the conn usable; the stream's own jobs will
		// surface the failure.
		_ = reply
	}
	r.conn = conn
	r.connGen++
	r.readerWG.Add(1)
	go r.readLoop(conn, r.connGen)
	return nil
}

// readLoop is the demultiplexer for one connection generation: it
// matches each reply to the pending call registered under its Seq. Any
// transport error — or a reply no call is waiting for — tears the
// connection down and fails every pending call.
func (r *RemoteEnhancer) readLoop(conn net.Conn, gen uint64) {
	defer r.readerWG.Done()
	for {
		//nslint:disable connio -- demux reader blocks for the connection's lifetime by design; each call's wait is bounded by callTimeout, and Close/failConn unblock the read by closing the conn
		msg, err := wire.Read(conn, wire.DefaultMaxPayload)
		if err != nil {
			r.failConn(gen, err)
			return
		}
		r.mu.Lock()
		ch, ok := r.pending[msg.Seq]
		if ok {
			delete(r.pending, msg.Seq)
		}
		r.mu.Unlock()
		if !ok {
			// Seqs are unique for the client's lifetime, so an unmatched
			// reply means the peer broke the correlation discipline (or the
			// call already failed); resynchronize by reconnecting.
			r.failConn(gen, fmt.Errorf("unmatched reply seq %d", msg.Seq))
			return
		}
		ch <- callReply{msg: msg}
	}
}

// failConn tears down connection generation gen (if still current) and
// fails every pending call with cause.
func (r *RemoteEnhancer) failConn(gen uint64, cause error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.connGen != gen || r.conn == nil {
		return
	}
	r.conn.Close()
	r.conn = nil
	r.failPendingLocked(cause)
}

// failPendingLocked delivers cause to every pending call. Callers hold
// r.mu.
func (r *RemoteEnhancer) failPendingLocked(cause error) {
	for seq, ch := range r.pending {
		delete(r.pending, seq)
		ch <- callReply{err: cause}
	}
}

// call performs one request/response over the multiplexed connection:
// register a pending slot under a fresh Seq, write the frame, and wait
// for the demultiplexer to deliver the matching reply (or the transport
// failure that voided it), bounded by the call timeout — tightened to
// the frame's deadline budget when one is set, since waiting past the
// chunk's deadline for a reply nobody can use just holds the slot open.
func (r *RemoteEnhancer) call(msg wire.Message) (wire.Message, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return wire.Message{}, fmt.Errorf("media: enhancer client closed: %w", ErrEnhancerUnavailable)
	}
	if r.conn == nil {
		if err := r.reconnectLocked(); err != nil {
			r.mu.Unlock()
			return wire.Message{}, fmt.Errorf("media: reconnect %s: %v: %w", r.addr, err, ErrEnhancerUnavailable)
		}
	}
	conn, gen := r.conn, r.connGen
	msg.Seq = r.seqs.Next()
	ch := make(chan callReply, 1)
	r.pending[msg.Seq] = ch
	r.mu.Unlock()

	wait := r.callTimeout
	if msg.Budget > 0 && (wait <= 0 || msg.Budget < wait) {
		wait = msg.Budget
	}

	r.writeMu.Lock()
	if wait > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(wait))
	}
	err := wire.Write(conn, msg)
	if wait > 0 {
		_ = conn.SetWriteDeadline(time.Time{})
	}
	r.writeMu.Unlock()
	if err != nil {
		// The write failure also surfaces in the reader; whichever tears
		// the conn down first delivers to every pending slot, ours
		// included.
		r.failConn(gen, err)
	}

	var reply callReply
	if wait > 0 {
		timer := time.NewTimer(wait)
		select {
		case reply = <-ch:
			timer.Stop()
		case <-timer.C:
			r.failConn(gen, fmt.Errorf("call timed out after %v", wait))
			reply = <-ch // failConn delivered; or the reply raced in first
		}
	} else {
		reply = <-ch
	}
	if reply.err != nil {
		return wire.Message{}, fmt.Errorf("media: enhancer call: %v: %w", reply.err, ErrEnhancerUnavailable)
	}
	if reply.msg.Type == wire.TypeError {
		return wire.Message{}, remoteError("media: remote", reply.msg.Payload)
	}
	return reply.msg, nil
}

// dropConnLocked closes and forgets a broken connection so the next call
// redials; pending calls fail. Callers hold r.mu.
func (r *RemoteEnhancer) dropConnLocked() {
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
		r.failPendingLocked(errors.New("connection dropped"))
	}
}

var _ BatchAnchorEnhancer = (*LocalEnhancer)(nil)
var _ BatchAnchorEnhancer = (*RemoteEnhancer)(nil)
var _ registrar = (*LocalEnhancer)(nil)
var _ registrar = (*RemoteEnhancer)(nil)
var _ pinger = (*RemoteEnhancer)(nil)
