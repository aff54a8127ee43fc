package media

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/icodec"
	"github.com/neuroscaler/neuroscaler/internal/par"
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

// AnchorEnhancer super-resolves and image-encodes one anchor frame. The
// media server is configured with one (local, remote, or a pool).
//
// A successful result's Encoded belongs to the caller, as an sr.Model's
// output does: the enhancer keeps no reference to it. The enhancers in
// this package code it into a buffer borrowed from the coded-anchor pool
// (codedAnchors), and the origin puts every successful outcome's buffer
// there once the container marshal has copied it; a buffer of any other
// enhancer's making simply joins the pool then.
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
// exactly like Enhance. Each successful outcome's Encoded belongs to the
// caller, as Enhance's does.
type BatchAnchorEnhancer interface {
	AnchorEnhancer
	EnhanceBatch(streamID uint32, jobs []wire.AnchorJob) ([]AnchorOutcome, error)
}

// errStreamRefused marks the outcome of jobs whose stream an enhancer
// would not register (its model provider refused the hello). Like
// ErrUnknownStream it is a fact about the stream, not about the
// enhancer's health.
var errStreamRefused = errors.New("media: stream refused by enhancer")

// streamFault reports whether err is a fact about the stream rather than
// about the enhancer that answered it: an unknown or refused stream.
func streamFault(err error) bool {
	return errors.Is(err, ErrUnknownStream) || errors.Is(err, errStreamRefused)
}

// enhanceGroup runs jobs on e as one dispatch, the only way the server
// and the pool hand anchors to an enhancer: EnhanceBatch when e has it,
// otherwise one concurrent Enhance per job. It returns one outcome per
// job, in job order; a non-nil error voids the whole group and the
// outcomes with it.
//
// It is also where an enhancer learns a stream. Jobs that come back
// ErrUnknownStream are the stream's first on e, or its first since e
// restarted: h, the stream's hello, is registered on e and those jobs
// run once more. The caller holds no lock here, and Register is
// idempotent, so concurrent first jobs may each register. A registration
// e refuses is those jobs' outcome, wrapping errStreamRefused; a nil h
// (the caller never saw the hello) leaves them as they came back.
func enhanceGroup(e AnchorEnhancer, streamID uint32, h *wire.Hello, jobs []wire.AnchorJob) ([]AnchorOutcome, error) {
	outs, err := dispatchGroup(e, streamID, jobs)
	reg, ok := e.(registrar)
	if err != nil || h == nil || !ok {
		return outs, err
	}
	var unknown []int
	var again []wire.AnchorJob
	for i := range outs {
		if errors.Is(outs[i].Err, ErrUnknownStream) {
			unknown, again = append(unknown, i), append(again, jobs[i])
		}
	}
	if len(unknown) == 0 {
		return outs, nil
	}
	if err := reg.Register(streamID, *h); err != nil {
		// An enhancer that answered refused the stream; one that could not
		// be reached did not.
		if !errors.Is(err, ErrEnhancerUnavailable) {
			err = fmt.Errorf("%w: %w", errStreamRefused, err)
		}
		err = fmt.Errorf("media: register stream %d: %w", streamID, err)
		for _, i := range unknown {
			outs[i].Err = err
		}
		return outs, nil
	}
	aouts, err := dispatchGroup(e, streamID, again)
	for k, i := range unknown {
		if err != nil {
			outs[i] = AnchorOutcome{Err: err}
		} else {
			outs[i] = aouts[k]
		}
	}
	return outs, nil
}

// dispatchGroup is enhanceGroup's one round: jobs as one dispatch on e.
func dispatchGroup(e AnchorEnhancer, streamID uint32, jobs []wire.AnchorJob) ([]AnchorOutcome, error) {
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

// Register binds a stream to its model. Registering a stream again
// rebinds it, so concurrent first jobs may each register.
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

// codedAnchors recycles coded anchors from coder to container. Every
// LocalEnhancer codes into a buffer from it, in process and behind an
// EnhancerServer, and a RemoteEnhancer copies each anchor of a reply into
// one. Whoever holds a successful outcome owns its buffer and puts it
// back once nothing reads it: the origin after the container marshal
// (pendingChunk.release), an EnhancerServer once the reply that carries
// it is written (sendReply).
var codedAnchors par.SlabPool[byte]

// Enhance implements AnchorEnhancer, coding the anchor into a buffer from
// codedAnchors. A job whose deadline has already passed is skipped with
// ErrDeadlineExceeded before any inference runs: enhancing a frame nobody
// can ship is pure waste under overload. A job of a stream with no model
// registered fails with ErrUnknownStream.
func (e *LocalEnhancer) Enhance(streamID uint32, job wire.AnchorJob) (wire.AnchorResult, error) {
	if expired(job.Deadline, time.Now()) {
		return wire.AnchorResult{}, fmt.Errorf("media: enhance stream %d packet %d: %w", streamID, job.Packet, ErrDeadlineExceeded)
	}
	if job.Frame == nil {
		return wire.AnchorResult{}, fmt.Errorf("media: enhance stream %d packet %d: job carries no frame", streamID, job.Packet)
	}
	e.mu.Lock()
	m, ok := e.models[streamID]
	e.mu.Unlock()
	if !ok {
		return wire.AnchorResult{}, fmt.Errorf("media: enhance stream %d packet %d: %w", streamID, job.Packet, ErrUnknownStream)
	}
	hr, err := m.Apply(job.Frame, job.DisplayIndex)
	if err != nil {
		return wire.AnchorResult{}, fmt.Errorf("media: enhance stream %d packet %d: %w", streamID, job.Packet, err)
	}
	// The model's output is ours (sr.Model's contract); once coded it goes
	// back to the frame arena for the next anchor of this geometry.
	data, _, err := icodec.Append(codedAnchors.Get(icodec.Reserve(hr.W, hr.H, job.QP))[:0], hr, icodec.Options{Quality: job.QP})
	frame.Release(hr)
	if err != nil {
		codedAnchors.Put(data)
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
	cfg      EnhancerServerConfig
	// srv owns the listener, the live connections and their handlers.
	srv *wire.Server
	// payloads recycles the batch payloads serveConn reads, each back the
	// moment its frames are decoded.
	payloads par.SlabPool[byte]

	jobsShed    atomic.Uint64
	jobsExpired atomic.Uint64
}

// Counters snapshots the server's overload-control counters.
func (s *EnhancerServer) Counters() EnhancerServerCounters {
	return EnhancerServerCounters{
		JobsShed:    s.jobsShed.Load(),
		JobsExpired: s.jobsExpired.Load(),
	}
}

// NewEnhancerServer starts serving on addr (use "127.0.0.1:0" for tests)
// with default concurrency.
func NewEnhancerServer(addr string, enhancer *LocalEnhancer, logf func(string, ...any)) (*EnhancerServer, error) {
	return NewEnhancerServerWith(addr, enhancer, EnhancerServerConfig{Logf: logf})
}

// NewEnhancerServerWith starts serving on addr with explicit per-connection
// concurrency and queue depth.
func NewEnhancerServerWith(addr string, enhancer *LocalEnhancer, cfg EnhancerServerConfig) (*EnhancerServer, error) {
	if enhancer == nil {
		return nil, errors.New("media: nil enhancer")
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	cfg.MaxConcurrentJobs = knob(cfg.MaxConcurrentJobs, DefaultEnhancerJobConcurrency)
	cfg.JobQueueDepth = knob(cfg.JobQueueDepth, DefaultEnhancerJobQueueDepth)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("media: enhancer listen: %w", err)
	}
	s := &EnhancerServer{enhancer: enhancer, cfg: cfg}
	s.srv = wire.Serve(ln, DefaultIdleTimeout, DefaultWriteTimeout, cfg.Logf, s.serveConn)
	return s, nil
}

// Addr returns the bound address.
func (s *EnhancerServer) Addr() string { return s.srv.Addr() }

// Close stops the server as wire.Server.Close does; twice is a no-op.
func (s *EnhancerServer) Close() error { return s.srv.Close() }

// serveConn demultiplexes one client connection: hellos and pings are
// answered inline (a hello must land before the jobs that rely on it),
// anchor batches land in a bounded earliest-deadline-first queue served
// by MaxConcurrentJobs workers that reply with the batch's Seq on
// completion. A full queue sheds the batch with a typed ErrShed reply,
// and workers drop entries whose deadline expired while queued with a
// typed ErrDeadlineExceeded reply — replies are demultiplexed by Seq,
// so out-of-order shed/expiry answers are harmless. Job-level failures
// (unknown stream, model error) ride back as that anchor's outcome
// inside the batch result, leaving its siblings and the connection
// untouched; protocol-level failures (undecodable payloads, unexpected
// types) drop the connection.
func (s *EnhancerServer) serveConn(conn *wire.Conn) error {
	queue := newJobQueue(s.cfg.JobQueueDepth)
	var jobs sync.WaitGroup
	defer jobs.Wait()
	defer queue.close()
	for i := 0; i < s.cfg.MaxConcurrentJobs; i++ {
		jobs.Add(1)
		go func() {
			defer jobs.Done()
			s.jobWorker(queue, conn)
		}()
	}
	for {
		msg, err := conn.ReadPooled(wire.DefaultMaxPayload, &s.payloads)
		if err != nil {
			return err
		}
		goodbye := msg.Type == wire.TypeGoodbye
		err = s.serveFrame(conn, queue, msg)
		// Nothing the frame's handling keeps aliases its payload: a batch's
		// frames were decoded into the frame arena.
		s.payloads.Put(msg.Payload)
		if err != nil || goodbye {
			return err
		}
	}
}

// serveFrame answers or enqueues one frame read by serveConn; an error
// drops the connection.
func (s *EnhancerServer) serveFrame(conn *wire.Conn, queue *jobQueue, msg wire.Message) error {
	switch msg.Type {
	case wire.TypeHello:
		h, err := wire.DecodeHello(msg.Payload)
		if err != nil {
			_ = conn.Write(wire.ErrorReply(msg, err))
			return err
		}
		if err := s.enhancer.Register(msg.StreamID, h); err != nil {
			return conn.Write(wire.ErrorReply(msg, err))
		}
		return conn.Write(wire.Message{Type: wire.TypeAck, StreamID: msg.StreamID, Seq: msg.Seq})
	case wire.TypeAnchorBatchJob:
		batch, err := wire.DecodeAnchorBatchJob(msg.Payload)
		if err != nil {
			_ = conn.Write(wire.ErrorReply(msg, err))
			return err
		}
		// A batch is one dispatch: it occupies a single worker
		// regardless of its size — that amortization is the point of
		// batching (§6.2 context-switch elimination).
		now := time.Now()
		msg.Payload = nil // back to the pool once this returns
		entry := &jobEntry{msg: msg, batch: batch, enqueued: now}
		if msg.Budget > 0 {
			// The wire budget is relative; re-derive the local deadline
			// from arrival time so peer clock skew never leaks in.
			entry.deadline = now.Add(msg.Budget)
			for i := range entry.batch {
				entry.batch[i].Deadline = entry.deadline
			}
		}
		s.admit(queue, conn, entry)
		return nil
	case wire.TypePing:
		return conn.Write(wire.Message{Type: wire.TypePong, StreamID: msg.StreamID, Seq: msg.Seq})
	case wire.TypeGoodbye:
		return nil
	default:
		err := fmt.Errorf("unexpected message %v", msg.Type)
		_ = conn.Write(wire.ErrorReply(msg, err))
		return err
	}
}

// admit pushes one dispatch into the connection's job queue, answering
// a full queue with a typed shed reply so the client's pool fails over
// instead of waiting on a backlog this replica cannot clear in time.
func (s *EnhancerServer) admit(queue *jobQueue, conn *wire.Conn, entry *jobEntry) {
	if queue.push(entry) {
		return
	}
	s.jobsShed.Add(1)
	wire.ReleaseFrames(entry.batch)
	err := fmt.Errorf("media: job queue full (depth %d): %w", s.cfg.JobQueueDepth, ErrShed)
	if werr := conn.Write(wire.ErrorReply(entry.msg, err)); werr != nil {
		s.cfg.Logf("media: enhancer reply: %v", werr)
	}
}

// jobWorker serves one connection's queue until it closes, answering
// each dispatch with the request's Seq.
func (s *EnhancerServer) jobWorker(queue *jobQueue, conn *wire.Conn) {
	var r batchReply
	for {
		e, ok := queue.pop()
		if !ok {
			return
		}
		s.runBatch(e, &r)
		wire.ReleaseFrames(e.batch) // nothing reads them once the batch has run
		if err := s.sendReply(conn, &r); err != nil {
			s.cfg.Logf("media: enhancer reply: %v", err)
		}
	}
}

// batchReply is one job worker's answer to a dispatch, reused from one
// dispatch to the next: the reply frame's header fields, and for a batch
// result its outcomes, whose coded anchors are borrowed from codedAnchors,
// laid out as the frame's parts.
type batchReply struct {
	msg  wire.Message
	outs []AnchorOutcome
	vec  wire.Vec
}

// runBatch serves one dequeued dispatch into r: a typed deadline error
// when the entry expired in the queue, otherwise the per-anchor outcomes
// of one run on the enhancer, each coded into a buffer from codedAnchors.
func (s *EnhancerServer) runBatch(e *jobEntry, r *batchReply) {
	if expired(e.deadline, time.Now()) {
		s.jobsExpired.Add(1)
		r.msg = wire.ErrorReply(e.msg, fmt.Errorf("media: job expired after %v in queue: %w",
			time.Since(e.enqueued).Round(time.Microsecond), ErrDeadlineExceeded))
		return
	}
	for _, job := range e.batch {
		var o AnchorOutcome
		o.Res, o.Err = s.enhancer.Enhance(e.msg.StreamID, job)
		if o.Err != nil {
			if errors.Is(o.Err, ErrDeadlineExceeded) {
				s.jobsExpired.Add(1)
			}
			o.Res = wire.AnchorResult{Packet: job.Packet}
		}
		r.outs = append(r.outs, o)
	}
	r.msg = wire.Message{Type: wire.TypeAnchorBatchResult, StreamID: e.msg.StreamID, Seq: e.msg.Seq}
	r.vec.PutAnchorBatchResult(r.outs)
}

// sendReply writes r's frame on conn — a batch result as one vectored
// write from the coded anchors, no payload built — and only then returns
// the coded anchors to codedAnchors, since the write reads them. It
// leaves r empty for the next dispatch.
func (s *EnhancerServer) sendReply(conn *wire.Conn, r *batchReply) error {
	var err error
	if r.msg.Type == wire.TypeAnchorBatchResult {
		err = conn.WriteParts(r.msg, r.vec.Parts()...)
	} else {
		err = conn.Write(r.msg)
	}
	for _, o := range r.outs {
		codedAnchors.Put(o.Res.Encoded)
	}
	clear(r.outs)
	r.outs = r.outs[:0]
	r.vec.Reset()
	return err
}

// RemoteEnhancer is an AnchorEnhancer backed by an EnhancerServer over
// TCP. It is safe for concurrent callers and multiplexes them over one
// connection through a wire.Mux, each call bounded by the call timeout.
// What it adds to the Mux is the connection's life cycle: a Mux that has
// failed (transport error, timed-out call) has failed its calls, which
// surface as ErrEnhancerUnavailable, and the next call dials a new
// connection. It keeps no per-stream state: an enhancer that restarted
// answers a stream's next job ErrUnknownStream, and enhanceGroup
// registers the stream again.
type RemoteEnhancer struct {
	addr        string
	callTimeout time.Duration
	dial        func() (net.Conn, error)
	// replies recycles the reply payloads every connection generation's
	// Mux reads, each back once call's caller is done with it.
	replies par.SlabPool[byte]

	mu sync.Mutex
	// mux is the current connection generation; it and closed are guarded
	// by mu.
	mux    *wire.Mux
	closed bool
}

// DialEnhancer connects to an enhancer service with default timeouts.
func DialEnhancer(addr string) (*RemoteEnhancer, error) {
	return DialEnhancerTimeout(addr, 0, 0)
}

// DialEnhancerTimeout connects with a dial timeout and bounds every call
// (its write and its wait for the reply). Zero or negative durations
// select the defaults: DefaultWriteTimeout for dialing, DefaultIdleTimeout
// for calls.
func DialEnhancerTimeout(addr string, dialTimeout, callTimeout time.Duration) (*RemoteEnhancer, error) {
	if dialTimeout <= 0 {
		dialTimeout = DefaultWriteTimeout
	}
	if callTimeout <= 0 {
		callTimeout = DefaultIdleTimeout
	}
	r := &RemoteEnhancer{
		addr:        addr,
		callTimeout: callTimeout,
		dial:        func() (net.Conn, error) { return net.DialTimeout("tcp", addr, dialTimeout) },
	}
	r.mu.Lock()
	err := r.connectLocked()
	r.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("media: dial enhancer: %w", err)
	}
	return r, nil
}

// Close says goodbye and tears down the connection; pending calls fail.
// The goodbye goes out outside r.mu: a dead peer cannot stall callers.
func (r *RemoteEnhancer) Close() error {
	r.mu.Lock()
	r.closed = true
	mux := r.mux
	r.mu.Unlock()
	return mux.Close()
}

// Register announces a stream to the remote enhancer.
func (r *RemoteEnhancer) Register(streamID uint32, h wire.Hello) error {
	payload, err := wire.EncodeHello(h)
	if err != nil {
		return err
	}
	reply, err := r.call(wire.Message{Type: wire.TypeHello, StreamID: streamID}, wire.TypeAck, payload)
	r.replies.Put(reply.Payload)
	return err
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
	// The frames go out as parts of the request, not copied into it.
	v := jobVecs.Get().(*wire.Vec)
	v.PutAnchorBatchJob(jobs)
	reply, err := r.call(wire.Message{
		Type:     wire.TypeAnchorBatchJob,
		StreamID: streamID,
		Budget:   jobBudget(minJobDeadline(jobs), time.Now()),
	}, wire.TypeAnchorBatchResult, v.Parts()...)
	v.Reset()
	jobVecs.Put(v)
	if err != nil {
		return nil, err
	}
	outs, err := wire.DecodeAnchorBatchResult(reply.Payload)
	if err == nil && len(outs) != len(jobs) {
		err = fmt.Errorf("media: enhance batch: %d outcomes for %d jobs", len(outs), len(jobs))
	}
	if err != nil {
		r.replies.Put(reply.Payload)
		return nil, err
	}
	// The outcomes alias the reply payload. Each anchor moves into a
	// coded-anchor buffer of its own, which the caller owns, and the
	// payload goes back at once.
	for i := range outs {
		o := &outs[i]
		if o.Err != nil {
			o.Res.Encoded = nil
			o.Err = remoteError("media: remote", []byte(o.Err.Error()))
			continue
		}
		enc := codedAnchors.Get(len(o.Res.Encoded))
		copy(enc, o.Res.Encoded)
		o.Res.Encoded = enc
	}
	r.replies.Put(reply.Payload)
	return outs, nil
}

// jobVecs recycles the parts of EnhanceBatch's request frames. A Vec
// comes back empty, its storage kept.
var jobVecs = sync.Pool{New: func() any { return new(wire.Vec) }}

// Ping performs a liveness probe (heartbeat health checks).
func (r *RemoteEnhancer) Ping() error {
	reply, err := r.call(wire.Message{Type: wire.TypePing}, wire.TypePong)
	r.replies.Put(reply.Payload)
	return err
}

// connectLocked dials the enhancer and installs the connection as the
// current Mux. Callers hold r.mu.
func (r *RemoteEnhancer) connectLocked() error {
	nc, err := r.dial()
	if err != nil {
		return err
	}
	r.mux = wire.NewMux(wire.NewConn(nc, 0, r.callTimeout), &r.replies, nil)
	return nil
}

// live returns the current connection, dialing a new one first when the
// last one has failed.
//
//nslint:lock-order RemoteEnhancer.mu -> Mux.mu -- a failed generation is checked and closed under its owner's lock; wire never calls back into media
//nslint:lock-order RemoteEnhancer.mu -> Conn.wmu -- a failed generation is checked and closed under its owner's lock; wire never calls back into media
func (r *RemoteEnhancer) live() (*wire.Mux, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("media: enhancer client closed: %w", ErrEnhancerUnavailable)
	}
	if r.mux.Err() == nil {
		return r.mux, nil
	}
	// Join the failed generation's reader (its conn is closed: no wait).
	_ = r.mux.Close()
	if err := r.connectLocked(); err != nil {
		return nil, fmt.Errorf("media: reconnect %s: %v: %w", r.addr, err, ErrEnhancerUnavailable)
	}
	return r.mux, nil
}

// call performs one request/response over the multiplexed connection and
// returns the reply, which must be of type want; its payload is borrowed
// from r.replies, and the caller puts it back. The request's payload is
// the concatenation of parts (msg.Payload is not sent). It waits at most
// the call timeout — tightened to the frame's deadline budget when one is
// set, since waiting past the chunk's deadline for a reply nobody can use
// just holds the slot open.
func (r *RemoteEnhancer) call(msg wire.Message, want wire.Type, parts ...[]byte) (wire.Message, error) {
	mux, err := r.live()
	if err != nil {
		return wire.Message{}, err
	}
	wait := r.callTimeout
	if msg.Budget > 0 && msg.Budget < wait {
		wait = msg.Budget
	}
	reply, err := mux.CallParts(msg, wait, parts...)
	if err != nil {
		return wire.Message{}, fmt.Errorf("media: enhancer call: %v: %w", err, ErrEnhancerUnavailable)
	}
	if reply.Type != want {
		if reply.Type == wire.TypeError {
			err = remoteError("media: remote", reply.Payload)
		} else {
			err = fmt.Errorf("media: %v: unexpected reply %v", msg.Type, reply.Type)
		}
		r.replies.Put(reply.Payload)
		return wire.Message{}, err
	}
	return reply, nil
}

var _ BatchAnchorEnhancer = (*LocalEnhancer)(nil)
var _ BatchAnchorEnhancer = (*RemoteEnhancer)(nil)
var _ registrar = (*LocalEnhancer)(nil)
var _ registrar = (*RemoteEnhancer)(nil)
var _ pinger = (*RemoteEnhancer)(nil)
