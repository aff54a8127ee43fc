package media

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/anchor"
	"github.com/neuroscaler/neuroscaler/internal/flight"
	"github.com/neuroscaler/neuroscaler/internal/hybrid"
	"github.com/neuroscaler/neuroscaler/internal/icodec"
	"github.com/neuroscaler/neuroscaler/internal/par"
	"github.com/neuroscaler/neuroscaler/internal/sched"
	"github.com/neuroscaler/neuroscaler/internal/vcodec"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

const (
	// DefaultPipelineDepth is the per-connection bound on chunks admitted
	// into the ingest pipeline beyond the one being packaged, so chunk
	// k+1 decodes while chunk k's anchors are in flight.
	DefaultPipelineDepth = 2
	// DefaultChunkRetention is the per-stream stored-chunk cap: generous
	// enough that a viewer a few minutes behind still finds its chunks,
	// bounded enough that a long-lived stream cannot grow the store
	// without limit.
	DefaultChunkRetention = 1024
	// DefaultMaxAnchorBatch is the per-dispatch anchor coalescing bound:
	// a chunk's selected anchors are grouped into batches of up to this
	// many frames, each costing one enhancer round trip (§6.2 dispatch
	// amortization).
	DefaultMaxAnchorBatch = 4
)

// ServerConfig tunes the media server.
type ServerConfig struct {
	// AnchorFraction is the fraction of frames to enhance per chunk
	// (the cost-effective default is 0.075).
	AnchorFraction float64
	// MaxInFlightAnchors bounds how many anchor enhancement RPCs the
	// server keeps outstanding at once, across all streams. Completion
	// order never affects output bytes (results are collected by packet
	// index), so this knob trades only memory and enhancer load for
	// throughput. Zero picks DefaultEnhancerJobConcurrency per replica
	// when the enhancer is an EnhancerPool (or a single replica's worth
	// otherwise); 1 or negative serializes enhancement like the
	// historical serial path.
	MaxInFlightAnchors int
	// MaxAnchorBatch caps how many of a chunk's in-flight anchors are
	// coalesced into one enhancer round trip. Batching never changes
	// output bytes (outcomes are keyed by selection index and anchors
	// fail independently); it only amortizes per-dispatch overhead. The
	// effective cap never exceeds MaxInFlightAnchors. Zero uses
	// DefaultMaxAnchorBatch; 1 or negative dispatches per anchor exactly
	// like the unbatched path. An enhancer without EnhanceBatch gets a
	// group's anchors as concurrent Enhance calls.
	MaxAnchorBatch int
	// PipelineDepth bounds how many chunks per connection may occupy the
	// ingest pipeline stages (decode+select → enhance → package+store)
	// at once. Zero uses DefaultPipelineDepth; 1 or negative disables
	// stage overlap.
	PipelineDepth int
	// ChunkRetention caps stored chunks per stream; the oldest chunk is
	// evicted when a stream exceeds it. Zero uses DefaultChunkRetention,
	// negative keeps every chunk.
	ChunkRetention int
	// DefaultChunkBudget is the deadline budget assigned to chunks that
	// arrive without one on the wire. Zero leaves such chunks
	// deadline-free (the legacy behavior); chunks that do carry a wire
	// budget always use it. The budget is the chunk's whole
	// admit-to-store allowance: decode, selection, enhancement (including
	// the pool's retry ladder), and packaging all spend from it. A
	// fetch without a wire budget gets it too, for the lazy build it
	// leads or its wait on one.
	DefaultChunkBudget time.Duration
	// StreamChunkRate, when positive, rate-limits chunk admission per
	// stream to this many chunks per second (token bucket of
	// StreamChunkBurst depth). Over-rate chunks are shed with a typed
	// ErrShed reply before any decode work; the connection stays up.
	StreamChunkRate float64
	// StreamChunkBurst is the token-bucket depth for StreamChunkRate
	// (minimum 1; zero picks 2× PipelineDepth).
	StreamChunkBurst int
	// Brownout configures the adaptive overload ladder; a zero HighDelay
	// disables it (see BrownoutConfig).
	Brownout BrownoutConfig
	// Budget, when non-nil, is the anchor-fraction budget consulted by
	// selection (shared with an external scheduler). Nil allocates a
	// private one when Brownout is enabled; with both absent, selection
	// uses AnchorFraction untouched.
	Budget *sched.Budget
	// LazyEnhancement defers anchor enhancement to first fetch: ingest
	// stores packets-only containers (no decode, no selection, no
	// enhancer spend), and the first TypeFetchChunk for a chunk runs the
	// decode → select → enhance → package build on demand, deduplicated
	// by an origin-side single flight. Because chunks are GOP-aligned
	// (key frames reset both reference slots) and selection and
	// enhancement are deterministic, the built container is byte-
	// identical to the eager path's. This is the delivery-tier
	// amortization mode: enhancement cost becomes per-catalog-entry, paid
	// only for chunks somebody watches.
	LazyEnhancement bool
	// Logf receives diagnostics; nil uses the standard logger.
	Logf func(string, ...any)
}

// ServerCounters is a snapshot of the server's availability counters:
// the degradation ladder's observable output.
type ServerCounters struct {
	ChunksProcessed uint64
	// ChunksDegraded counts chunks shipped with at least one selected
	// anchor missing (the client falls back to codec-guided reuse).
	ChunksDegraded  uint64
	AnchorsEnhanced uint64
	// AnchorsDropped counts anchors whose enhancement failed after the
	// enhancer's own retry budget was exhausted.
	AnchorsDropped uint64
	// AnchorsRejected counts enhancer results that failed validation
	// (undecodable payload, wrong packet, wrong dimensions).
	AnchorsRejected uint64
	// AnchorsSelected counts anchors picked by selection; every selected
	// anchor lands in exactly one of Enhanced, Dropped, Rejected, or
	// Expired, so the ledger balances under any overload.
	AnchorsSelected uint64
	// AnchorsExpired counts anchors abandoned because their chunk's
	// deadline budget ran out mid-enhancement.
	AnchorsExpired uint64
	// ChunksShed counts chunks rejected at admission (per-stream token
	// bucket) before any decode work.
	ChunksShed uint64
	// ChunksExpired counts chunks whose deadline had already passed at
	// decode start; they ship at the bilinear floor (no anchors).
	ChunksExpired uint64
	// ChunksFloored counts low-priority chunks degraded to the bilinear
	// floor by the brownout ladder.
	ChunksFloored uint64
	// ChunksDeferred counts chunks stored packets-only at ingest with
	// their enhancement deferred to first fetch (lazy-enhancement mode).
	ChunksDeferred uint64
	// LazyBuilds counts fetch-time enhancement builds actually run (each
	// coalesces any concurrent fetches of the same chunk).
	LazyBuilds uint64
	// FetchesServed counts TypeFetchChunk requests answered with chunk
	// data.
	FetchesServed uint64
}

// serverCounters is the pipeline's operational ledger. The anchor
// counters obey a conservation law: every anchor the select stage counts
// in is settled into exactly one outcome counter by the package stage,
// so at quiescence anchorsSelected == anchorsEnhanced + anchorsDropped +
// anchorsRejected + anchorsExpired (the tests check it with
// requireAnchorLedger).
type serverCounters struct {
	chunksProcessed, chunksDegraded atomic.Uint64
	anchorsEnhanced, anchorsDropped atomic.Uint64
	anchorsRejected                 atomic.Uint64
	anchorsSelected, anchorsExpired atomic.Uint64
	chunksShed, chunksExpired       atomic.Uint64
	chunksFloored, chunksDeferred   atomic.Uint64
	lazyBuilds, fetchesServed       atomic.Uint64
}

// StageStats snapshots the pipeline's per-stage latency accounting (total
// time spent in each stage across all chunks, plus how many times each
// stage ran, so per-stage averages are derivable from one snapshot) and
// the current anchor in-flight gauge. enhance_wait is the time the
// package stage stalled on outstanding enhancements — the overlap target:
// it shrinks as decode of later chunks hides behind it.
type StageStats struct {
	Chunks             uint64
	DecodeCount        uint64
	DecodeMsTotal      float64
	SelectCount        uint64
	SelectMsTotal      float64
	EnhanceWaitCount   uint64
	EnhanceWaitMsTotal float64
	PackageCount       uint64
	PackageMsTotal     float64
	AnchorsInFlight    int64
}

type stageTimers struct {
	decodeNanos, selectNanos       atomic.Int64
	enhanceWaitNanos, packageNanos atomic.Int64
	decodeCount, selectCount       atomic.Uint64
	enhanceWaitCount, packageCount atomic.Uint64
	anchorsInFlight                atomic.Int64
}

// Server is the NeuroScaler media server: it terminates ingest
// connections, runs zero-inference anchor selection per chunk, enhances
// anchors through an AnchorEnhancer, and stores hybrid containers for
// HTTP distribution. Enhancement failures degrade chunks (anchors are
// dropped, the ingest stream still flows) instead of failing them.
//
// The serving path is pipelined (see DESIGN.md "Concurrency model"):
// each connection runs bounded decode+select → enhance → package+store
// stages so successive chunks overlap, and each chunk's selected anchors
// fan out concurrently across the enhancer under MaxInFlightAnchors.
// Output is byte-identical to the serial path for any knob setting:
// results are keyed by packet index and assembled in selection order.
type Server struct {
	cfg      ServerConfig
	enhancer AnchorEnhancer
	store    *ChunkStore
	// srv owns the ingest listener, its connections and their handlers.
	srv      *wire.Server
	counters serverCounters
	stages   stageTimers

	// budget scales the effective anchor fraction (brownout L1+); nil
	// when neither a Budget nor a Brownout config was supplied, in which
	// case selection reads AnchorFraction directly.
	budget *sched.Budget
	// brownout is the hysteretic overload ladder; nil = disabled.
	brownout *brownout
	// queueDelayHist measures ingest admit → decode start; it is the
	// brownout controller's input signal. admitStoreHist measures the
	// full admit → stored latency per chunk (the SLO the chaos tests
	// bound).
	queueDelayHist *LatencyHist
	admitStoreHist *LatencyHist

	// anchorSlots is the server-wide in-flight bound on anchor RPCs; a
	// batch of n anchors holds n slots. slotMu serializes multi-slot
	// acquisition so two batches can never deadlock on partial holdings
	// (single-slot acquirers release unconditionally, so the serialized
	// waiter always makes progress).
	anchorSlots chan struct{}
	slotMu      sync.Mutex
	// ingestArena recycles wire payload buffers across chunks: the read
	// loop borrows each frame's payload from it (wire.ReadPooled), decode
	// aliases the packets out of it without copying, and the package
	// stage returns it once the chunk's bytes have been marshaled into
	// their single exact-size store allocation. Ownership is linear:
	// reader → decode stage → package stage, which alone may Put.
	ingestArena par.SlabPool[byte]

	// builds coalesces concurrent fetches of one pending chunk into one
	// fetch-time enhancement build (see handleFetch).
	builds *flight.Group[chunkKey, wire.ChunkData]

	mu sync.Mutex
	// streams is guarded by mu.
	streams map[uint32]*serverStream
}

type serverStream struct {
	hello wire.Hello
	qp    int
	// bucket rate-limits chunk admission for this stream; nil when
	// StreamChunkRate is unset.
	bucket *tokenBucket
}

// StreamInfo is the distribution-side metadata for one stream.
type StreamInfo struct {
	StreamID uint32 `json:"stream_id"`
	Width    int    `json:"width"`
	Height   int    `json:"height"`
	Scale    int    `json:"scale"`
	FPS      int    `json:"fps"`
	Content  string `json:"content"`
	Chunks   int    `json:"chunks"`
	// DegradedChunks counts stored chunks missing at least one anchor.
	DegradedChunks int `json:"degraded_chunks"`
	// EvictedChunks counts chunks dropped by the retention cap.
	EvictedChunks uint64 `json:"evicted_chunks"`
}

// NewServer starts the ingest listener on addr.
func NewServer(addr string, enhancer AnchorEnhancer, cfg ServerConfig) (*Server, error) {
	if enhancer == nil {
		return nil, errors.New("media: nil enhancer")
	}
	if cfg.AnchorFraction <= 0 {
		cfg.AnchorFraction = 0.075
	}
	if cfg.AnchorFraction > 0.15 {
		return nil, fmt.Errorf("media: anchor fraction %v exceeds the hybrid codec's 15%% limit", cfg.AnchorFraction)
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	inFlight := DefaultEnhancerJobConcurrency
	if p, ok := enhancer.(*EnhancerPool); ok {
		inFlight *= p.Size()
	}
	cfg.MaxInFlightAnchors = knob(cfg.MaxInFlightAnchors, inFlight)
	cfg.MaxAnchorBatch = min(knob(cfg.MaxAnchorBatch, DefaultMaxAnchorBatch), cfg.MaxInFlightAnchors)
	cfg.PipelineDepth = knob(cfg.PipelineDepth, DefaultPipelineDepth)
	if cfg.ChunkRetention == 0 {
		cfg.ChunkRetention = DefaultChunkRetention
	}
	if cfg.ChunkRetention < 0 {
		cfg.ChunkRetention = 0 // unbounded
	}
	if cfg.StreamChunkBurst < 1 {
		cfg.StreamChunkBurst = 2 * cfg.PipelineDepth
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("media: ingest listen: %w", err)
	}
	budget := cfg.Budget
	if budget == nil && cfg.Brownout.HighDelay > 0 {
		budget = &sched.Budget{}
	}
	s := &Server{
		cfg:            cfg,
		enhancer:       enhancer,
		store:          NewChunkStoreRetention(cfg.ChunkRetention),
		budget:         budget,
		brownout:       newBrownout(cfg.Brownout, budget),
		queueDelayHist: NewLatencyHist(),
		admitStoreHist: NewLatencyHist(),
		anchorSlots:    make(chan struct{}, cfg.MaxInFlightAnchors),
		builds:         flight.New[chunkKey, wire.ChunkData](nil, nil),
		streams:        make(map[uint32]*serverStream),
	}
	s.srv = wire.Serve(ln, DefaultIdleTimeout, DefaultWriteTimeout, cfg.Logf, s.serveIngest)
	return s, nil
}

// knob resolves a count setting: zero selects def, and a negative count
// is one.
func knob(v, def int) int {
	if v == 0 {
		return def
	}
	return max(v, 1)
}

// Addr returns the ingest address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Store exposes the chunk store (read-side).
func (s *Server) Store() *ChunkStore { return s.store }

// Counters returns a snapshot of the availability counters.
func (s *Server) Counters() ServerCounters {
	return ServerCounters{
		ChunksProcessed: s.counters.chunksProcessed.Load(),
		ChunksDegraded:  s.counters.chunksDegraded.Load(),
		AnchorsEnhanced: s.counters.anchorsEnhanced.Load(),
		AnchorsDropped:  s.counters.anchorsDropped.Load(),
		AnchorsRejected: s.counters.anchorsRejected.Load(),
		AnchorsSelected: s.counters.anchorsSelected.Load(),
		AnchorsExpired:  s.counters.anchorsExpired.Load(),
		ChunksShed:      s.counters.chunksShed.Load(),
		ChunksExpired:   s.counters.chunksExpired.Load(),
		ChunksFloored:   s.counters.chunksFloored.Load(),
		ChunksDeferred:  s.counters.chunksDeferred.Load(),
		LazyBuilds:      s.counters.lazyBuilds.Load(),
		FetchesServed:   s.counters.fetchesServed.Load(),
	}
}

// AdmitToStoreP99 reports the p99 admit-to-store latency across chunks
// that carried an admission timestamp (an upper bucket bound; zero with
// no observations).
func (s *Server) AdmitToStoreP99() time.Duration { return s.admitStoreHist.Quantile(0.99) }

// StageStats returns a snapshot of the pipeline stage accounting.
func (s *Server) StageStats() StageStats {
	const ms = float64(time.Millisecond)
	return StageStats{
		Chunks:             s.counters.chunksProcessed.Load(),
		DecodeCount:        s.stages.decodeCount.Load(),
		DecodeMsTotal:      float64(s.stages.decodeNanos.Load()) / ms,
		SelectCount:        s.stages.selectCount.Load(),
		SelectMsTotal:      float64(s.stages.selectNanos.Load()) / ms,
		EnhanceWaitCount:   s.stages.enhanceWaitCount.Load(),
		EnhanceWaitMsTotal: float64(s.stages.enhanceWaitNanos.Load()) / ms,
		PackageCount:       s.stages.packageCount.Load(),
		PackageMsTotal:     float64(s.stages.packageNanos.Load()) / ms,
		AnchorsInFlight:    s.stages.anchorsInFlight.Load(),
	}
}

// Close stops ingest as wire.Server.Close does; twice is a no-op.
func (s *Server) Close() error { return s.srv.Close() }

// ingestJob is one message flowing through a connection's pipeline. All
// replies — chunk acks, hello acks, pongs, and error reports — are
// written by the package stage in arrival order, so the pipelined server
// answers exactly like the serial one did.
type ingestJob struct {
	msg wire.Message
	// pc carries a chunk's in-flight state from the decode stage to the
	// package stage; nil for pass-through messages (hello, ping).
	pc *pendingChunk
	// err is a fatal stream error detected upstream: the package stage
	// reports it to the client in order and then tears the connection
	// down, matching the serial path's error handling.
	err error
	// admitted is when the read loop accepted the chunk; zero for
	// non-chunk messages. deadline is the chunk's admit-to-store budget
	// (zero = none). shed marks a chunk rejected by admission control:
	// it skips decode and the package stage answers with a typed,
	// non-fatal ErrShed reply.
	admitted time.Time
	deadline time.Time
	shed     bool
}

// ingestPipeline is the per-connection stage state.
type ingestPipeline struct {
	s    *Server
	conn *wire.Conn

	// fatal says the connection has failed; err is the first cause. Only
	// the package stage fails a pipeline, so err has one writer, and
	// serveIngest reads it after joining the stages.
	fatal atomic.Bool
	err   error
}

func (p *ingestPipeline) fail(err error) {
	if p.err == nil {
		p.err = err
	}
	p.fatal.Store(true)
	// Unblock the read loop (Close is idempotent; wire.Serve closes the
	// conn again when the handler returns).
	_ = p.conn.Close()
}

// send writes one reply frame; a reply that cannot be written is fatal to
// the connection.
func (p *ingestPipeline) send(m wire.Message) {
	if err := p.conn.Write(m); err != nil {
		p.fail(err)
	}
}

// reject reports a fatal error to the client (best effort) and tears the
// connection down.
func (p *ingestPipeline) reject(msg wire.Message, cause error) {
	_ = p.conn.Write(wire.ErrorReply(msg, cause))
	p.fail(cause)
}

// serveIngest runs one connection's bounded pipeline: the read loop
// parses frames, the decode stage builds each chunk — decode and anchor
// selection — and dispatches its enhancements as it goes, and the
// package stage assembles, stores, and acknowledges chunks in arrival
// order. Stage queues hold at most PipelineDepth chunks, so a slow
// enhancer exerts backpressure instead of buffering without bound.
func (s *Server) serveIngest(conn *wire.Conn) error {
	p := &ingestPipeline{s: s, conn: conn}
	decodeCh := make(chan *ingestJob, s.cfg.PipelineDepth)
	packageCh := make(chan *ingestJob, s.cfg.PipelineDepth)
	var stages sync.WaitGroup
	stages.Add(2)
	go func() {
		defer stages.Done()
		defer close(packageCh)
		for job := range decodeCh {
			if job.err == nil && job.pc == nil && !job.shed && job.msg.Type == wire.TypeChunk && !p.fatal.Load() {
				s.decodeStage(job)
			}
			packageCh <- job
		}
	}()
	go func() {
		defer stages.Done()
		for job := range packageCh {
			s.packageStage(p, job)
		}
	}()

	var readErr error
	for {
		msg, err := conn.ReadPooled(wire.DefaultMaxPayload, &s.ingestArena)
		if err != nil {
			if !p.fatal.Load() {
				readErr = err
			}
			break
		}
		if msg.Type == wire.TypeGoodbye {
			s.ingestArena.Put(msg.Payload)
			break
		}
		// Payload ownership rides the job into the pipeline; the package
		// stage is the single release point (see ingestArena).
		job := &ingestJob{msg: msg}
		switch msg.Type {
		case wire.TypeChunk:
			s.admitChunk(job)
		case wire.TypeFetchChunk:
			// A fetch's deadline bounds the lazy build it leads or its wait
			// on one another fetch leads. It is derived like a chunk's: from
			// arrival time (relative-budget semantics), the wire budget
			// winning over DefaultChunkBudget.
			job.admitted = time.Now()
			if budget := cmp.Or(msg.Budget, s.cfg.DefaultChunkBudget); budget > 0 {
				job.deadline = job.admitted.Add(budget)
			}
		default:
			// Unstamped frame types ride through untouched: the decode
			// stage's own type switch answers or rejects them in order.
		}
		decodeCh <- job
		if p.fatal.Load() {
			break
		}
	}
	close(decodeCh)
	stages.Wait()
	if p.err != nil {
		return p.err
	}
	return readErr
}

// admitChunk is the read loop's admission decision for one chunk: stamp
// the admission time, derive the chunk's deadline (the wire budget wins
// over DefaultChunkBudget), and charge the stream's token bucket. An
// over-rate chunk is marked shed — it skips decode and the package
// stage answers with a typed, non-fatal reply, so the stream survives
// its own burst.
func (s *Server) admitChunk(job *ingestJob) {
	now := time.Now()
	job.admitted = now
	budget := job.msg.Budget
	if budget <= 0 {
		budget = s.cfg.DefaultChunkBudget
	}
	if budget > 0 {
		job.deadline = now.Add(budget)
	}
	if s.cfg.StreamChunkRate <= 0 {
		return
	}
	s.mu.Lock()
	st := s.streams[job.msg.StreamID]
	s.mu.Unlock()
	if st == nil || st.bucket == nil {
		// Unknown stream: decode reports the protocol error in order.
		return
	}
	if !st.bucket.take(now) {
		job.shed = true
		s.counters.chunksShed.Add(1)
	}
}

// decodeStage is stage one for a chunk: look up the stream, wrap its
// packets in a packets-only container, and — unless the chunk ships as it
// is — build it (prepare). Failures annotate the job; the package stage
// reports them in order.
//
// It is also where the overload ladder observes and acts: the chunk's
// measured queue delay (admit → here) plus the dispatcher's in-flight
// occupancy feed the brownout controller, a chunk whose deadline has
// already passed ships at the bilinear floor instead of spending
// enhancer budget nobody can use, and at the ladder's top level
// low-priority streams are floored outright. A floored chunk's container
// carries only the video packets (no anchors), so viewers reconstruct
// every frame with codec-guided reuse over the upscaled base layer.
// Chunks are GOP-aligned, so no chunk's build needs the one before it —
// the floor and lazy paths spend no decode, no selection, and no
// enhancer budget.
func (s *Server) decodeStage(job *ingestJob) {
	msg := job.msg
	s.mu.Lock()
	st := s.streams[msg.StreamID]
	s.mu.Unlock()
	if st == nil {
		job.err = fmt.Errorf("chunk before hello on stream %d", msg.StreamID)
		return
	}
	// Packets alias the pooled payload rather than copying out of it; the
	// aliases die when assembleChunk finishes marshaling, strictly before
	// the package stage recycles the payload.
	packets, err := wire.DecodeChunk(msg.Payload)
	if err != nil {
		job.err = err
		return
	}
	container := &hybrid.Container{
		Config: st.hello.Config,
		Scale:  st.hello.Scale,
		Frames: make([]hybrid.ContainerFrame, len(packets)),
	}
	for i, pkt := range packets {
		container.Frames[i] = hybrid.ContainerFrame{VideoPacket: pkt}
	}
	pc := &pendingChunk{streamID: msg.StreamID, st: st, container: container}
	job.pc = pc

	now := time.Now()
	if !job.admitted.IsZero() {
		queueDelay := now.Sub(job.admitted)
		s.queueDelayHist.Observe(queueDelay)
		occupancy := float64(s.stages.anchorsInFlight.Load()) / float64(s.cfg.MaxInFlightAnchors)
		s.brownout.observe(now, queueDelay, occupancy)
	}
	switch {
	case !job.admitted.IsZero() && expired(job.deadline, now):
		s.counters.chunksExpired.Add(1)
		pc.floored = true
	case st.hello.Priority > 0 && s.brownout.floorLowPriority():
		s.counters.chunksFloored.Add(1)
		pc.floored = true
	case s.cfg.LazyEnhancement:
		// Delivery-tier amortization: store the packets-only container now
		// and run prepareChunk when a fetch first asks for this chunk.
		s.counters.chunksDeferred.Add(1)
		pc.pending = true
	default:
		job.err = s.prepare(pc, job.deadline)
		if job.err == nil {
			s.dispatchAnchors(pc)
		}
	}
}

// decoders recycles chunk-build decoders by stream geometry, as the frame
// arena recycles frames (frame.Borrow): a sync.Map of [2]int{w, h} to a
// sync.Pool of *vcodec.Decoder.
var decoders sync.Map

// prepare is how eager ingest and the lazy build alike build a chunk: it
// borrows a decoder for the stream's geometry, runs prepareChunk on it,
// and gives it back. Whatever chunk the decoder built before never shows
// (see prepareChunk).
func (s *Server) prepare(pc *pendingChunk, deadline time.Time) error {
	w, h := pc.st.hello.Config.Width, pc.st.hello.Config.Height
	key := [2]int{w, h}
	pool, ok := decoders.Load(key)
	if !ok {
		pool, _ = decoders.LoadOrStore(key, &sync.Pool{})
	}
	dec, _ := pool.(*sync.Pool).Get().(*vcodec.Decoder)
	if dec == nil {
		var err error
		if dec, err = vcodec.NewDecoder(w, h); err != nil {
			return err
		}
	}
	err := s.prepareChunk(pc, dec, deadline)
	pool.(*sync.Pool).Put(dec)
	return err
}

// prepareChunk is the one chunk builder: scan pc's packets, run
// zero-inference anchor selection at the budgeted fraction, then
// reconstruct on dec only the prefix of packets up to the last selected
// one and fill in the selected anchors' jobs. Selection reads codec side
// information alone, so no pixel work happens before it, and a chunk that
// fails to parse anywhere fails before dec's state is touched.
//
// Reconstruction stops at the last anchor, leaving dec's reference slots
// mid-GOP, or holding another stream's frames of the same geometry. Only
// a key frame may follow: a chunk that is not key-first is refused on its
// scan, before any reconstruction, and the key frame resets both slots.
// So a reused decoder and a fresh one reconstruct bit-identically, and
// every build of a chunk gives byte-identical containers.
//
// The stage counters charge the scan and the prefix reconstruction to
// decode and the selection between them to select, each once per chunk.
func (s *Server) prepareChunk(pc *pendingChunk, dec *vcodec.Decoder, deadline time.Time) error {
	frames := pc.container.Frames
	start := time.Now()
	infos := make([]vcodec.Info, len(frames))
	for i := range frames {
		info, err := dec.Scan(frames[i].VideoPacket)
		if err != nil {
			return fmt.Errorf("media: stream %d packet %d: %w", pc.streamID, i, err)
		}
		infos[i] = info
	}
	// Each container must be independently decodable by viewers joining
	// mid-stream, so distribution chunks are GOP-aligned (as in HLS/DASH).
	if len(infos) == 0 || infos[0].Type != vcodec.Key {
		return fmt.Errorf("media: stream %d chunk does not start with a key frame; send GOP-aligned chunks", pc.streamID)
	}
	scanned := time.Since(start)

	start = time.Now()
	cands := anchor.ZeroInferenceGains(anchor.MetasFromInfos(infos))
	// The effective fraction is the configured base scaled by the
	// brownout budget; with no budget (or scale 1.0) the base float64
	// passes through untouched, so the idle controller is bit-invisible
	// to selection.
	frac := s.budget.Fraction(pc.streamID, s.cfg.AnchorFraction)
	n := int(frac*float64(len(frames)) + 0.5)
	if n < 1 {
		n = 1
	}
	pc.selected = anchor.SelectTopN(cands, n)
	s.stages.selectNanos.Add(int64(time.Since(start)))
	s.stages.selectCount.Add(1)

	pc.jobs = make([]wire.AnchorJob, len(pc.selected))
	pc.outcomes = make([]AnchorOutcome, len(pc.selected))
	last := 0
	for si, c := range pc.selected {
		i := c.Meta.Packet
		pc.jobs[si] = wire.AnchorJob{
			Packet:       i,
			DisplayIndex: infos[i].DisplayIndex,
			QP:           pc.st.qp,
			Deadline:     deadline,
		}
		last = max(last, i)
	}
	start = time.Now()
	for i := 0; i <= last; i++ {
		pkt := frames[i].VideoPacket
		si := slices.IndexFunc(pc.jobs, func(j wire.AnchorJob) bool { return j.Packet == i })
		var err error
		if si < 0 {
			// Not an anchor: its pixels only advance the reference slots.
			err = dec.Reconstruct(pkt)
		} else {
			var d *vcodec.Decoded
			if d, err = dec.Decode(pkt); err == nil {
				pc.jobs[si].Frame = d.Frame
			}
		}
		if err != nil {
			wire.ReleaseFrames(pc.jobs) // the anchors decoded so far go nowhere
			return fmt.Errorf("media: stream %d packet %d: %w", pc.streamID, i, err)
		}
	}
	s.stages.decodeNanos.Add(int64(scanned + time.Since(start)))
	s.stages.decodeCount.Add(1)
	s.counters.anchorsSelected.Add(uint64(len(pc.selected)))
	return nil
}

// dispatchAnchors fans a prepared chunk's anchors out to the enhancer in
// groups of up to MaxAnchorBatch, each one dispatch. Outcomes land by
// selection index, so the grouping never changes output bytes.
func (s *Server) dispatchAnchors(pc *pendingChunk) {
	batch := s.cfg.MaxAnchorBatch
	// Brownout L2+ doubles the effective batch (still within the
	// in-flight bound): fewer, larger dispatches shrink per-anchor
	// overhead exactly when the enhancer tier is the bottleneck.
	if boost := s.brownout.batchBoost(); boost > 1 {
		batch = min(batch*boost, s.cfg.MaxInFlightAnchors)
	}
	for lo := 0; lo < len(pc.jobs); lo += batch {
		hi := min(lo+batch, len(pc.jobs))
		pc.wg.Add(1)
		go func() {
			defer pc.wg.Done()
			copy(pc.outcomes[lo:hi], s.enhanceJobs(pc, pc.jobs[lo:hi]))
		}()
	}
}

// pendingChunk is one chunk's enhancement fan-out: outcomes land in a
// slice indexed by selection order, so assembly is deterministic no
// matter which replica finishes first.
//
// It owns its jobs' frames, borrowed from the frame arena by the decode,
// and its successful outcomes' coded anchors, borrowed from codedAnchors
// by the enhancers (AnchorEnhancer's contract). release gives both back:
// at the end of assembleChunk (after the rescue pass, which dispatches the
// frames again, and the marshal, which copies the anchors), or after the
// fan-out of a chunk a fatal connection abandons. A prepareChunk error
// releases the frames decoded so far; nothing was dispatched then.
type pendingChunk struct {
	streamID  uint32
	st        *serverStream
	container *hybrid.Container
	selected  []anchor.Candidate
	jobs      []wire.AnchorJob
	outcomes  []AnchorOutcome
	wg        sync.WaitGroup
	// floored marks a chunk shipped at the bilinear floor (expired
	// deadline or brownout): no anchors were selected or dispatched.
	floored bool
	// pending marks a lazy-enhancement chunk stored packets-only with
	// its build deferred to first fetch (not degraded, not final).
	pending bool
	// expired marks a chunk that lost an anchor to its deadline budget.
	expired bool
}

// release returns the chunk's job frames to the frame arena and every
// successful outcome's coded anchor to codedAnchors, once nothing reads
// either. Failed outcomes carry no buffer of the caller's.
func (pc *pendingChunk) release() {
	wire.ReleaseFrames(pc.jobs)
	for i := range pc.outcomes {
		if pc.outcomes[i].Err == nil {
			codedAnchors.Put(pc.outcomes[i].Res.Encoded)
		}
	}
	clear(pc.outcomes)
}

// enhanceJobs is the server's one dispatch: it runs jobs of pc as a
// single enhancer group, with the stream's hello for an enhancer that
// does not know the stream yet, under the server-wide in-flight bound (a
// group of n holds n slots, acquired under slotMu so concurrent groups
// cannot deadlock on partial holdings) and returns one outcome per job. A
// group-level failure is every member's outcome; per-anchor failures stay
// individual.
func (s *Server) enhanceJobs(pc *pendingChunk, jobs []wire.AnchorJob) []AnchorOutcome {
	n := len(jobs)
	s.slotMu.Lock()
	for i := 0; i < n; i++ {
		s.anchorSlots <- struct{}{}
	}
	s.slotMu.Unlock()
	defer func() {
		for i := 0; i < n; i++ {
			<-s.anchorSlots
		}
	}()
	s.stages.anchorsInFlight.Add(int64(n))
	defer s.stages.anchorsInFlight.Add(-int64(n))
	outs, err := enhanceGroup(s.enhancer, pc.streamID, &pc.st.hello, jobs)
	if err != nil {
		outs = make([]AnchorOutcome, n)
		for i := range outs {
			outs[i].Err = err
		}
	}
	return outs
}

// packageStage is the final stage: wait for the chunk's fan-out, rescue
// stragglers, assemble and validate in deterministic order, marshal into
// the arena scratch, store, and acknowledge. It also answers the
// pass-through messages (hello, ping) so every reply leaves in arrival
// order.
func (s *Server) packageStage(p *ingestPipeline, job *ingestJob) {
	// Single release point for the pooled wire payload: every job reaches
	// this stage exactly once, and by the time it returns no alias of the
	// payload (chunk packets, hello bytes) is live.
	defer s.ingestArena.Put(job.msg.Payload)
	if p.fatal.Load() {
		// A prior job already reported a fatal error; drain outstanding
		// enhancements so nothing leaks, and stay silent like the serial
		// server after close.
		if job.pc != nil {
			job.pc.wg.Wait()
			job.pc.release()
		}
		return
	}
	msg := job.msg
	if job.err != nil {
		p.reject(msg, job.err)
		return
	}
	if job.shed {
		// Admission shed is a per-chunk outcome, not a protocol breach:
		// answer with the typed marker (the streamer maps it back to
		// ErrShed) and keep the connection flowing.
		p.send(wire.ErrorReply(msg, fmt.Errorf("media: chunk seq %d: %w", msg.Seq, ErrShed)))
		return
	}
	switch {
	case msg.Type == wire.TypeHello:
		if err := s.registerStream(msg); err != nil {
			p.reject(msg, err)
			return
		}
		p.send(wire.Message{Type: wire.TypeAck, StreamID: msg.StreamID, Seq: msg.Seq})
	case msg.Type == wire.TypePing:
		p.send(wire.Message{Type: wire.TypePong, StreamID: msg.StreamID, Seq: msg.Seq})
	case msg.Type == wire.TypeFetchChunk:
		s.handleFetch(p, job)
	case job.pc != nil:
		s.packageChunk(p, job)
	default:
		err := fmt.Errorf("unexpected message %v", msg.Type)
		p.reject(msg, err)
	}
}

// registerStream handles a hello: validate the stream and model configs,
// resolve the anchor QP, and announce the stream to the enhancer. The
// validated config bounds the frames a build's decoder will allocate.
func (s *Server) registerStream(msg wire.Message) error {
	h, err := wire.DecodeHello(msg.Payload)
	if err != nil {
		return err
	}
	// A hello sizes every frame the stream's builds will decode, so it
	// must pass the limits its encoder did. Validate fills defaults in
	// place; check a copy so the stored config stays as announced.
	cfg := h.Config
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("media: stream %d hello: %w", msg.StreamID, err)
	}
	if err := h.Model.Validate(); err != nil {
		return fmt.Errorf("media: stream %d hello: %w", msg.StreamID, err)
	}
	qp, err := hybrid.QPForFraction(s.cfg.AnchorFraction)
	if err != nil {
		return err
	}
	// If the enhancer needs per-stream registration (local, remote, or a
	// pool), forward the hello.
	if r, ok := s.enhancer.(registrar); ok {
		if err := r.Register(msg.StreamID, h); err != nil {
			return err
		}
	}
	st := &serverStream{hello: h, qp: qp}
	if s.cfg.StreamChunkRate > 0 {
		st.bucket = newTokenBucket(s.cfg.StreamChunkRate, s.cfg.StreamChunkBurst)
	}
	s.mu.Lock()
	s.streams[msg.StreamID] = st
	s.mu.Unlock()
	return nil
}

// assembleChunk finishes one chunk's enhancement fan-out and produces
// its marshalled container: wait out the fan-out, rescue stragglers,
// validate and fill anchors in deterministic order, marshal. It is
// shared by the ingest package stage and the fetch-time lazy build —
// both produce byte-identical containers because outcomes land by
// selection index regardless of which path ran them.
func (s *Server) assembleChunk(pc *pendingChunk, deadline time.Time) ([]byte, bool, error) {
	start := time.Now()
	pc.wg.Wait()
	// The rescue pass below is the last dispatch of the job frames, and the
	// marshal the last read of the coded anchors.
	defer pc.release()
	s.stages.enhanceWaitNanos.Add(int64(time.Since(start)))
	s.stages.enhanceWaitCount.Add(1)

	// Rescue pass: with concurrent fan-out, anchors racing a half-open
	// breaker's probe can exhaust their retries while the probe is still
	// in flight — a failure mode the serial path never had. One in-order
	// retry of transport-failed anchors after the wave settles restores
	// the serial path's availability (and stays deterministic: a dead
	// enhancer fails both passes, a recovered one succeeds). Anchors that
	// ran out of deadline budget are not rescued — their chunk is late
	// already — and the whole pass is skipped once the chunk's own
	// deadline has passed.
	if !expired(deadline, time.Now()) {
		for si := range pc.outcomes {
			out := &pc.outcomes[si]
			if out.Err == nil || !errors.Is(out.Err, ErrEnhancerUnavailable) || errors.Is(out.Err, ErrDeadlineExceeded) {
				continue
			}
			if again := s.enhanceJobs(pc, pc.jobs[si:si+1])[0]; again.Err == nil {
				*out = again
			}
		}
	}

	degraded := pc.floored
	for si, c := range pc.selected {
		i := c.Meta.Packet
		out := pc.outcomes[si]
		if out.Err != nil {
			if errors.Is(out.Err, ErrDeadlineExceeded) {
				s.counters.anchorsExpired.Add(1)
				pc.expired = true
			} else {
				s.counters.anchorsDropped.Add(1)
			}
			degraded = true
			s.cfg.Logf("media: stream %d: anchor %d dropped, shipping degraded chunk: %v", pc.streamID, i, out.Err)
			continue
		}
		if err := validateAnchor(out.Res, i, pc.st); err != nil {
			s.counters.anchorsRejected.Add(1)
			degraded = true
			s.cfg.Logf("media: stream %d: anchor %d rejected: %v", pc.streamID, i, err)
			continue
		}
		s.counters.anchorsEnhanced.Add(1)
		pc.container.Frames[i].Anchor = out.Res.Encoded
	}

	// The chunk's bytes are allocated exactly once: one right-sized
	// buffer, marshaled into directly (video packets still alias the
	// pooled wire payload until this copy), then owned by the store.
	start = time.Now()
	data, err := pc.container.MarshalAppend(make([]byte, 0, pc.container.MarshalSize()))
	if err != nil {
		return nil, degraded, err
	}
	s.stages.packageNanos.Add(int64(time.Since(start)))
	s.stages.packageCount.Add(1)
	return data, degraded, nil
}

// packageChunk finishes one chunk: collect the fan-out, retry
// stragglers, assemble, marshal, store, ack.
func (s *Server) packageChunk(p *ingestPipeline, job *ingestJob) {
	pc := job.pc
	data, degraded, err := s.assembleChunk(pc, job.deadline)
	if err != nil {
		p.reject(job.msg, err)
		return
	}
	s.counters.chunksProcessed.Add(1)
	if degraded {
		s.counters.chunksDegraded.Add(1)
	}
	seq := s.store.AppendChunkState(pc.streamID, data, degraded, pc.pending)
	if !job.admitted.IsZero() {
		s.admitStoreHist.Observe(time.Since(job.admitted))
	}

	p.send(wire.Message{Type: wire.TypeAck, StreamID: pc.streamID, Seq: uint32(seq)})
}

// chunkKey names one stored chunk: the key of its fetch-time build.
type chunkKey struct {
	stream uint32
	seq    int
}

// handleFetch answers one TypeFetchChunk request from the package stage
// (in order, like every reply on an ingest connection). Missing chunks
// and failed builds produce non-fatal typed error replies — a delivery
// tier multiplexing many streams over one connection must survive a
// stale fetch — while malformed payloads tear the connection down like
// any protocol breach.
func (s *Server) handleFetch(p *ingestPipeline, job *ingestJob) {
	msg := job.msg
	req, err := wire.DecodeFetchChunk(msg.Payload)
	if err != nil {
		p.reject(msg, err)
		return
	}
	reply := func(err error) { p.send(wire.ErrorReply(msg, err)) }
	if req.Quality != 0 {
		reply(fmt.Errorf("media: origin serves quality 0 only, not %d", req.Quality))
		return
	}
	cd := wire.ChunkData{Seq: req.Seq}
	var pending bool
	cd.Data, cd.Degraded, pending, err = s.store.ChunkState(msg.StreamID, int(req.Seq))
	if err == nil && pending {
		// Concurrent fetches of one pending chunk share one build. Each
		// waits only as long as its own deadline; the leader's deadline
		// bounds the build. The leader completes after buildChunk's
		// write-back, so a fetch that finds the key retired reads the
		// final chunk instead of starting a second build.
		k := chunkKey{stream: msg.StreamID, seq: int(req.Seq)}
		if c, leader := s.builds.Join(k); leader {
			cd, err = s.buildChunk(k, job.deadline)
			s.builds.Complete(k, c, cd, err)
		} else {
			cd, err = s.builds.Wait(c, job.deadline)
		}
	}
	if err != nil {
		reply(err)
		return
	}
	s.counters.fetchesServed.Add(1)
	// The stored container is immutable, so it goes out as it lies in the
	// store: no payload is built around it.
	if err := p.conn.WriteChunkData(wire.Message{Type: wire.TypeChunkData, StreamID: msg.StreamID, Seq: msg.Seq}, cd); err != nil {
		p.fail(err)
	}
}

// buildChunk runs one deferred enhancement build: prepare over the
// stored packets-only container, then assemble, then write the finished
// container back over the pending one.
//
// A build that lost an anchor to its deadline is served to its own
// flight but not written back: the chunk stays pending, so the next
// fetch builds it in full and one short budget cannot degrade it for
// good. Anchors dropped or rejected for other reasons still write back —
// availability over quality, as at eager ingest.
func (s *Server) buildChunk(k chunkKey, deadline time.Time) (wire.ChunkData, error) {
	cd := wire.ChunkData{Seq: uint32(k.seq)}
	s.mu.Lock()
	st := s.streams[k.stream]
	s.mu.Unlock()
	if st == nil {
		return cd, fmt.Errorf("media: unknown stream %d", k.stream)
	}
	stored, degraded, pending, err := s.store.ChunkState(k.stream, k.seq)
	if err != nil || !pending {
		// Not pending: raced a concurrent build's write-back, so the
		// chunk is final.
		cd.Data, cd.Degraded = stored, degraded
		return cd, err
	}
	pc := &pendingChunk{streamID: k.stream, st: st, container: new(hybrid.Container)}
	if err := pc.container.UnmarshalBinary(stored); err != nil {
		return cd, fmt.Errorf("media: stream %d chunk %d: %w", k.stream, k.seq, err)
	}
	if err := s.prepare(pc, deadline); err != nil {
		return cd, err
	}
	s.dispatchAnchors(pc)
	if cd.Data, cd.Degraded, err = s.assembleChunk(pc, deadline); err != nil {
		return cd, err
	}
	s.counters.lazyBuilds.Add(1)
	if pc.expired {
		return cd, nil
	}
	if err := s.store.ReplaceChunk(k.stream, k.seq, cd.Data, cd.Degraded); err != nil {
		// The chunk fell out of the retention window mid-build; the
		// requester still gets the bytes.
		s.cfg.Logf("media: stream %d chunk %d write-back: %v", k.stream, k.seq, err)
	}
	return cd, nil
}

// validateAnchor rejects enhancer results that would poison the
// container: wrong packet index, undecodable image payload, or wrong
// output dimensions. A rejected anchor is dropped like a failed one.
func validateAnchor(res wire.AnchorResult, packet int, st *serverStream) error {
	if res.Packet != packet {
		return fmt.Errorf("media: result for packet %d, want %d", res.Packet, packet)
	}
	// Parse-only validation: entropy decoding is the only fallible stage
	// of a full decode, so Validate catches exactly the payloads Decode
	// would reject without paying for pixel reconstruction.
	fw, fh, err := icodec.Validate(res.Encoded)
	if err != nil {
		return fmt.Errorf("media: anchor payload undecodable: %w", err)
	}
	wantW := st.hello.Config.Width * st.hello.Scale
	wantH := st.hello.Config.Height * st.hello.Scale
	if fw != wantW || fh != wantH {
		return fmt.Errorf("media: anchor is %dx%d, want %dx%d", fw, fh, wantW, wantH)
	}
	return nil
}

// DistributionHandler returns the HTTP handler for the viewer side:
//
//	GET /streams                     → JSON list of StreamInfo
//	GET /streams/{id}/chunks/{seq}   → hybrid container bytes
//	GET /metrics                     → Prometheus text exposition
//	                                   (see writeMetrics)
func (s *Server) DistributionHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /streams", func(w http.ResponseWriter, r *http.Request) {
		// Snapshot stream metadata under s.mu, then query the store with
		// the lock released: Server.mu and ChunkStore.mu are never held
		// together (DESIGN.md "Invariants").
		type streamMeta struct {
			id    uint32
			hello wire.Hello
		}
		s.mu.Lock()
		metas := make([]streamMeta, 0, len(s.streams))
		for id, st := range s.streams {
			metas = append(metas, streamMeta{id: id, hello: st.hello})
		}
		s.mu.Unlock()
		var infos []StreamInfo
		for _, m := range metas {
			infos = append(infos, StreamInfo{
				StreamID:       m.id,
				Width:          m.hello.Config.Width,
				Height:         m.hello.Config.Height,
				Scale:          m.hello.Scale,
				FPS:            m.hello.Config.FPS,
				Content:        m.hello.Content,
				Chunks:         s.store.ChunkCount(m.id),
				DegradedChunks: s.store.DegradedCount(m.id),
				EvictedChunks:  s.store.EvictedCount(m.id),
			})
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(infos); err != nil {
			s.cfg.Logf("media: encode stream list: %v", err)
		}
	})
	mux.HandleFunc("GET /streams/{id}/chunks/{seq}", func(w http.ResponseWriter, r *http.Request) {
		id, err1 := strconv.ParseUint(strings.TrimSpace(r.PathValue("id")), 10, 32)
		seq, err2 := strconv.Atoi(r.PathValue("seq"))
		if err1 != nil || err2 != nil {
			http.Error(w, "bad stream or chunk id", http.StatusBadRequest)
			return
		}
		data, err := s.store.Chunk(uint32(id), seq)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if _, err := w.Write(data); err != nil {
			s.cfg.Logf("media: write chunk: %v", err)
		}
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.writeMetrics(w)
	})
	return mux
}

// writeMetrics emits the server's overload-control observables in
// Prometheus text exposition format: the queue-delay and admit-to-store
// histograms, every shed/expired/degraded counter, the per-stage latency
// totals and run counts, the store's evictions, the brownout-level gauge,
// and (when pooled) the pool's fault counters and per-replica state.
func (s *Server) writeMetrics(w io.Writer) {
	s.queueDelayHist.WritePrometheus(w, "neuroscaler_ingest_queue_delay_seconds",
		"Chunk latency from ingest admission to decode start.")
	s.admitStoreHist.WritePrometheus(w, "neuroscaler_admit_to_store_seconds",
		"Chunk latency from ingest admission to container store.")
	c := s.Counters()
	WriteCounter(w, "neuroscaler_chunks_processed_total", "Chunks packaged and stored.", c.ChunksProcessed)
	WriteCounter(w, "neuroscaler_chunks_degraded_total", "Chunks shipped missing at least one selected anchor.", c.ChunksDegraded)
	WriteCounter(w, "neuroscaler_chunks_shed_total", "Chunks rejected by per-stream admission control.", c.ChunksShed)
	WriteCounter(w, "neuroscaler_chunks_expired_total", "Chunks floored because their deadline passed before decode.", c.ChunksExpired)
	WriteCounter(w, "neuroscaler_chunks_floored_total", "Low-priority chunks floored by the brownout ladder.", c.ChunksFloored)
	WriteCounter(w, "neuroscaler_anchors_selected_total", "Anchors picked by zero-inference selection.", c.AnchorsSelected)
	WriteCounter(w, "neuroscaler_anchors_enhanced_total", "Anchors enhanced and shipped.", c.AnchorsEnhanced)
	WriteCounter(w, "neuroscaler_anchors_dropped_total", "Anchors dropped after enhancement failure.", c.AnchorsDropped)
	WriteCounter(w, "neuroscaler_anchors_rejected_total", "Anchor results rejected by validation.", c.AnchorsRejected)
	WriteCounter(w, "neuroscaler_anchors_expired_total", "Anchors abandoned after their deadline budget ran out.", c.AnchorsExpired)
	WriteCounter(w, "neuroscaler_chunks_deferred_total", "Chunks stored packets-only with enhancement deferred to first fetch.", c.ChunksDeferred)
	WriteCounter(w, "neuroscaler_lazy_builds_total", "Fetch-time enhancement builds run (single-flighted).", c.LazyBuilds)
	WriteCounter(w, "neuroscaler_fetches_served_total", "TypeFetchChunk requests answered with chunk data.", c.FetchesServed)
	WriteGauge(w, "neuroscaler_brownout_level", "Current brownout ladder level (0 = off).", float64(s.brownout.Level()))
	WriteGauge(w, "neuroscaler_anchors_in_flight", "Anchor enhancement RPCs currently outstanding.", float64(s.stages.anchorsInFlight.Load()))
	WriteCounter(w, "neuroscaler_store_chunks_evicted_total", "Chunks dropped from the store by the per-stream retention cap.", s.store.TotalEvicted())
	writeStageMetrics(w, s.StageStats())
	if p, ok := s.enhancer.(*EnhancerPool); ok {
		pc := p.Counters()
		WriteCounter(w, "neuroscaler_pool_calls_total", "Per-anchor pool calls.", pc.Calls)
		WriteCounter(w, "neuroscaler_pool_retries_total", "Pool retry attempts.", pc.Retries)
		WriteCounter(w, "neuroscaler_pool_failovers_total", "Pool failovers to another replica.", pc.Failovers)
		WriteCounter(w, "neuroscaler_pool_breaker_opens_total", "Replica breakers opened.", pc.BreakerOpens)
		WriteCounter(w, "neuroscaler_pool_unavailable_total", "Pool calls exhausted on every replica.", pc.Unavailable)
		WriteCounter(w, "neuroscaler_pool_deadline_expired_total", "Pool calls abandoned on deadline budget exhaustion.", pc.DeadlineExpired)
		writeReplicaMetrics(w, p.ReplicaStats())
	}
}
