package edge

import (
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/flight"
	"github.com/neuroscaler/neuroscaler/internal/media"
	"github.com/neuroscaler/neuroscaler/internal/par"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

const (
	// DefaultCacheBytes holds a few thousand test-geometry containers —
	// enough that eviction pressure is a deliberate test knob, not an
	// accident of defaults.
	DefaultCacheBytes = 64 << 20
	// DefaultUpstreamConns bounds concurrent origin fetches. Misses
	// beyond it queue for a conn, which is the delivery tier's natural
	// origin-protection throttle.
	DefaultUpstreamConns = 4
	// DefaultFetchBudget is the end-to-end deadline assumed for a fetch
	// that arrived without a wire budget.
	DefaultFetchBudget = 10 * time.Second
	// DefaultReadTimeout is the viewer-conn idle bound, at both its ends.
	// Subscribers that send nothing must ping within it or be reaped.
	DefaultReadTimeout = 2 * time.Minute
	// DefaultWriteTimeout bounds each delivery write so one stalled
	// viewer cannot wedge a fanout goroutine.
	DefaultWriteTimeout = 10 * time.Second
	// maxRequestPayload caps viewer->edge frames; requests are a few
	// bytes, so anything large is a protocol violation.
	maxRequestPayload = 4 << 10
)

// Config parameterizes an Edge.
type Config struct {
	// Upstream is the origin media server's wire address (required).
	Upstream string
	// CacheBytes bounds resident cached payload bytes; zero uses
	// DefaultCacheBytes.
	CacheBytes int64
	// DialUpstream overrides how origin connections are made (fault
	// injection, wrapped conns); nil uses net.Dial.
	DialUpstream func(addr string) (net.Conn, error)
	// Logf sinks diagnostics; nil discards.
	Logf func(format string, args ...any)
}

// Counters is a point-in-time snapshot of edge activity. CacheHits
// counts deliveries straight from memory; CacheMisses counts leader
// fetches to the origin; CoalescedWaits counts deliveries that rode an
// already-airborne fetch instead of duplicating it. Hit rate for the
// amortization economics is (hits+coalesced)/(hits+coalesced+misses):
// coalesced waiters consumed no extra origin work.
type Counters struct {
	CacheHits        uint64 `json:"cache_hits"`
	CacheMisses      uint64 `json:"cache_misses"`
	CoalescedWaits   uint64 `json:"coalesced_waits"`
	AdmissionRejects uint64 `json:"admission_rejects"`
	Evictions        uint64 `json:"evictions"`
	UpstreamErrors   uint64 `json:"upstream_errors"`
	FanoutPushes     uint64 `json:"fanout_pushes"`
	FetchesServed    uint64 `json:"fetches_served"`
	Subscribers      int64  `json:"subscribers"`
}

// AmortizedRate returns the fraction of chunk deliveries that consumed
// no fresh origin fetch (cache hits plus coalesced waits).
func (c Counters) AmortizedRate() float64 {
	total := c.CacheHits + c.CoalescedWaits + c.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(c.CacheHits+c.CoalescedWaits) / float64(total)
}

// Edge is the delivery-tier server: it listens for viewer connections
// speaking the wire protocol (fetch, subscribe, ping), serves enhanced
// containers from its cache, and fetches misses from the origin with
// single-flight coalescing and budget-bounded deadlines.
type Edge struct {
	cfg Config
	// srv owns the listener, the live viewer conns and their handlers.
	srv     *wire.Server
	cache   *Cache
	flights *flight.Group[Key, *entry]
	pool    par.SlabPool[byte]
	// reqs lends viewer request payloads (a few bytes each) for the
	// time it takes to decode them.
	reqs      par.SlabPool[byte]
	upstreams chan *upstreamConn

	// closed tells fetches queued for an upstream conn to give up;
	// closeOnce guards it and the one-shot drain of the upstream pool.
	closed    chan struct{}
	closeOnce sync.Once

	subMu sync.Mutex
	// subs indexes live subscribers by stream; byConn tracks each
	// viewer conn's subscriptions for teardown. Both guarded by subMu,
	// as is every subscriber's lastSeq watermark.
	subs   map[uint32]map[*subscriber]struct{}
	byConn map[*wire.Conn][]*subscriber
	nSubs  atomic.Int64

	hits             atomic.Uint64
	misses           atomic.Uint64
	coalescedWaits   atomic.Uint64
	admissionRejects atomic.Uint64
	upstreamErrors   atomic.Uint64
	fanoutPushes     atomic.Uint64
	fetchesServed    atomic.Uint64

	hitLatency  *media.LatencyHist
	missLatency *media.LatencyHist
}

// NewEdge starts an edge listening on addr (use "127.0.0.1:0" in
// tests) in front of cfg.Upstream.
func NewEdge(addr string, cfg Config) (*Edge, error) {
	if cfg.Upstream == "" {
		return nil, errors.New("edge: Config.Upstream required")
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.DialUpstream == nil {
		cfg.DialUpstream = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("edge: listen: %w", err)
	}
	e := &Edge{
		cfg:         cfg,
		cache:       NewCache(cfg.CacheBytes),
		flights:     flight.New[Key, *entry](grant, (*entry).release),
		upstreams:   make(chan *upstreamConn, DefaultUpstreamConns),
		closed:      make(chan struct{}),
		subs:        make(map[uint32]map[*subscriber]struct{}),
		byConn:      make(map[*wire.Conn][]*subscriber),
		hitLatency:  media.NewLatencyHist(),
		missLatency: media.NewLatencyHist(),
	}
	for i := 0; i < DefaultUpstreamConns; i++ {
		e.upstreams <- &upstreamConn{}
	}
	e.srv = wire.Serve(ln, DefaultReadTimeout, DefaultWriteTimeout, cfg.Logf, e.serveConn)
	return e, nil
}

// Addr returns the edge's listen address.
func (e *Edge) Addr() string { return e.srv.Addr() }

// Close stops accepting, tears down viewer conns, joins all serving
// goroutines and closes the upstream pool. Closing twice is a no-op.
func (e *Edge) Close() error {
	var err error
	e.closeOnce.Do(func() {
		close(e.closed)
		err = e.srv.Close()
		for i := 0; i < cap(e.upstreams); i++ {
			(<-e.upstreams).breakConn()
		}
	})
	return err
}

// Counters snapshots edge activity.
func (e *Edge) Counters() Counters {
	return Counters{
		CacheHits:        e.hits.Load(),
		CacheMisses:      e.misses.Load(),
		CoalescedWaits:   e.coalescedWaits.Load(),
		AdmissionRejects: e.admissionRejects.Load(),
		Evictions:        e.cache.Evictions(),
		UpstreamErrors:   e.upstreamErrors.Load(),
		FanoutPushes:     e.fanoutPushes.Load(),
		FetchesServed:    e.fetchesServed.Load(),
		Subscribers:      e.nSubs.Load(),
	}
}

// subscriber is one viewer's standing request for a stream's chunks.
// lastSeq is the highest sequence already pushed (subMu-guarded), the
// at-most-once watermark for fanout.
type subscriber struct {
	c       *wire.Conn
	stream  uint32
	quality uint8
	lastSeq int64
}

// serveConn answers one viewer conn's requests in order; pushes from
// other conns' fanout interleave with its replies frame by frame under
// the conn's write lock.
func (e *Edge) serveConn(c *wire.Conn) error {
	defer e.dropConn(c)
	for {
		msg, err := c.ReadPooled(maxRequestPayload, &e.reqs)
		if err != nil {
			return err
		}
		done, err := e.serveRequest(c, msg)
		// Every handler has decoded the payload by now, and no reply or
		// fanout write keeps a reference to it.
		e.reqs.Put(msg.Payload)
		if done || err != nil {
			return err
		}
	}
}

// serveRequest answers one viewer request; done reports a goodbye.
func (e *Edge) serveRequest(c *wire.Conn, msg wire.Message) (done bool, err error) {
	switch msg.Type {
	case wire.TypePing:
		return false, c.Write(wire.Message{Type: wire.TypePong, StreamID: msg.StreamID, Seq: msg.Seq})
	case wire.TypeGoodbye:
		return true, nil
	case wire.TypeFetchChunk:
		return false, e.handleFetch(c, msg)
	case wire.TypeSubscribe:
		return false, e.handleSubscribe(c, msg)
	default:
		return false, fmt.Errorf("edge: unexpected %v frame", msg.Type)
	}
}

// handleFetch serves one chunk request: cache hit, coalesced wait, or
// leader fetch from the origin. Request-level failures (unknown chunk,
// origin error) answer with a typed error and keep the conn; only a
// broken viewer conn is fatal.
func (e *Edge) handleFetch(c *wire.Conn, msg wire.Message) error {
	req, err := wire.DecodeFetchChunk(msg.Payload)
	if err != nil {
		_ = c.Write(wire.ErrorReply(msg, err))
		return fmt.Errorf("edge: bad fetch payload: %w", err)
	}
	start := time.Now()
	budget := msg.Budget
	if budget <= 0 {
		budget = DefaultFetchBudget
	}
	k := Key{Stream: msg.StreamID, Seq: req.Seq, Quality: req.Quality}
	ent, hit, err := e.getChunk(k, start.Add(budget))
	if err != nil {
		return c.Write(wire.ErrorReply(msg, err))
	}
	e.fetchesServed.Add(1)
	werr := c.WriteShared(wire.Message{
		Type: wire.TypeChunkData, StreamID: k.Stream, Seq: msg.Seq,
	}, ent.prefix, wire.ChunkDataTail(ent.degraded, hit), ent.crcPrefix)
	if hit {
		e.hitLatency.Observe(time.Since(start))
	} else {
		e.missLatency.Observe(time.Since(start))
	}
	if werr == nil {
		e.fanout(k, ent)
	}
	ent.release()
	return werr
}

// getChunk resolves a key to a refcounted entry: cache first, then the
// key's flight (waiting on an airborne fetch if one exists, else leading
// one). The caller owns one reference on the returned entry.
func (e *Edge) getChunk(k Key, deadline time.Time) (ent *entry, hit bool, err error) {
	if ent, ok := e.cache.Get(k); ok {
		e.hits.Add(1)
		return ent, true, nil
	}
	f, leader := e.flights.Join(k)
	if !leader {
		e.coalescedWaits.Add(1)
		ent, err = e.flights.Wait(f, deadline)
		return ent, false, err
	}
	e.misses.Add(1)
	ent, err = e.fetchUpstream(k, deadline)
	if err == nil && !e.cache.Admit(ent) {
		e.admissionRejects.Add(1)
	}
	// Admit-then-complete: by the time the key retires, the cache already
	// holds the entry (or admission deliberately declined it).
	e.flights.Complete(k, f, ent, err)
	return ent, false, err
}

// grant mints one coalesced waiter's own reference to a published entry;
// the flight group calls it once per waiter before waking any of them.
func grant(ent *entry) *entry {
	ent.retain()
	return ent
}

func (e *Edge) handleSubscribe(c *wire.Conn, msg wire.Message) error {
	req, err := wire.DecodeSubscribe(msg.Payload)
	if err != nil {
		_ = c.Write(wire.ErrorReply(msg, err))
		return fmt.Errorf("edge: bad subscribe payload: %w", err)
	}
	sub := &subscriber{c: c, stream: msg.StreamID, quality: req.Quality, lastSeq: int64(req.FromSeq) - 1}
	e.subMu.Lock()
	m := e.subs[msg.StreamID]
	if m == nil {
		m = make(map[*subscriber]struct{})
		e.subs[msg.StreamID] = m
	}
	m[sub] = struct{}{}
	e.byConn[c] = append(e.byConn[c], sub)
	e.subMu.Unlock()
	e.nSubs.Add(1)
	return c.Write(wire.Message{Type: wire.TypeSubscribe, StreamID: msg.StreamID, Seq: msg.Seq})
}

// fanout pushes a just-served chunk to every subscriber of its stream
// that has not yet seen this sequence, as unsolicited (Seq 0) frames
// sharing the cached prefix — the marshal-once, write-N path.
func (e *Edge) fanout(k Key, ent *entry) {
	e.subMu.Lock()
	var targets []*subscriber
	for sub := range e.subs[k.Stream] {
		if sub.quality == k.Quality && int64(k.Seq) > sub.lastSeq {
			sub.lastSeq = int64(k.Seq)
			targets = append(targets, sub)
		}
	}
	e.subMu.Unlock()
	if len(targets) == 0 {
		return
	}
	tail := wire.ChunkDataTail(ent.degraded, true)
	msg := wire.Message{Type: wire.TypeChunkData, StreamID: k.Stream, Seq: 0}
	for _, sub := range targets {
		if err := sub.c.WriteShared(msg, ent.prefix, tail, ent.crcPrefix); err != nil {
			e.cfg.Logf("edge: push to %s: %v", sub.c.RemoteAddr(), err)
			e.removeSubscriber(sub)
			continue
		}
		e.fanoutPushes.Add(1)
	}
}

func (e *Edge) removeSubscriber(sub *subscriber) {
	e.subMu.Lock()
	defer e.subMu.Unlock()
	e.removeSubscriberLocked(sub)
}

// removeSubscriberLocked unregisters sub if it still is registered.
// Callers hold subMu.
func (e *Edge) removeSubscriberLocked(sub *subscriber) {
	m := e.subs[sub.stream]
	if _, ok := m[sub]; !ok {
		return
	}
	delete(m, sub)
	if len(m) == 0 {
		delete(e.subs, sub.stream)
	}
	e.nSubs.Add(-1)
}

func (e *Edge) dropConn(c *wire.Conn) {
	e.subMu.Lock()
	subs := e.byConn[c]
	delete(e.byConn, c)
	for _, sub := range subs {
		e.removeSubscriberLocked(sub)
	}
	e.subMu.Unlock()
}

// upstreamConn is one pooled origin connection; exclusivity comes from
// the pool channel, so requests on it are strictly serial — one
// wire.Conn.RoundTrip at a time, the reply read straight into a pooled
// slab and checked against the Seq it must echo — rather than
// multiplexed through a wire.Mux.
type upstreamConn struct {
	conn *wire.Conn
	seqs wire.SeqSource
	// req holds the request payload; one request at a time is its guard.
	req [5]byte
}

// fetchUpstream checks out a pooled origin conn, runs one fetch on it,
// and returns the conn to the pool (broken conns are closed and redial
// lazily, which is what lets the edge ride out an origin restart).
func (e *Edge) fetchUpstream(k Key, deadline time.Time) (*entry, error) {
	var u *upstreamConn
	select {
	case u = <-e.upstreams:
		// An idle conn: no wait, so no timer to arm.
	default:
		// Checking out a conn spends the same budget the fetch does: under
		// origin slowness the pool drains, and an unbounded wait here would
		// queue requests past the point their viewers have given up.
		wait := time.NewTimer(time.Until(deadline))
		defer wait.Stop()
		select {
		case u = <-e.upstreams:
		case <-e.closed:
			return nil, errors.New("edge: shutting down")
		case <-wait.C:
			return nil, fmt.Errorf("edge: budget exhausted waiting for an upstream conn (stream %d chunk %d)", k.Stream, k.Seq)
		}
	}
	ent, err := e.fetchOn(u, k, deadline)
	e.upstreams <- u
	if err != nil {
		e.upstreamErrors.Add(1)
	}
	return ent, err
}

func (e *Edge) fetchOn(u *upstreamConn, k Key, deadline time.Time) (*entry, error) {
	budget := time.Until(deadline)
	if budget <= 0 {
		return nil, fmt.Errorf("edge: budget exhausted before fetch of stream %d chunk %d", k.Stream, k.Seq)
	}
	if u.conn == nil {
		nc, err := e.cfg.DialUpstream(e.cfg.Upstream)
		if err != nil {
			return nil, fmt.Errorf("edge: dial upstream: %w", err)
		}
		// No idle or write timeout of its own: every use is a RoundTrip
		// under the fetch's deadline.
		u.conn = wire.NewConn(nc, 0, 0)
	}
	// One deadline covers the whole round trip; the origin gets the
	// remaining budget and re-derives its own deadline (relative budget
	// semantics survive clock skew between tiers).
	seq := u.seqs.Next()
	msg, err := u.conn.RoundTrip(wire.Message{
		Type: wire.TypeFetchChunk, StreamID: k.Stream, Seq: seq, Budget: budget,
		Payload: wire.AppendFetchChunk(u.req[:0], wire.FetchChunk{Seq: k.Seq, Quality: k.Quality}),
	}, deadline, wire.DefaultMaxPayload, &e.pool)
	if err != nil {
		u.breakConn()
		return nil, fmt.Errorf("edge: upstream: %w", err)
	}
	return e.parseReply(u, k, seq, msg)
}

// parseReply validates one origin reply frame and wraps its payload as
// a cache entry. Ownership of msg's pooled payload transfers here:
// every outcome either recycles the slab or hands it to the entry.
//
//nslint:slab-transfer msg
func (e *Edge) parseReply(u *upstreamConn, k Key, seq uint32, msg wire.Message) (*entry, error) {
	gotSeq, typ := msg.Seq, msg.Type
	if gotSeq != seq {
		e.pool.Put(msg.Payload)
		u.breakConn()
		return nil, fmt.Errorf("edge: upstream reply seq %d, want %d", gotSeq, seq)
	}
	if typ == wire.TypeError {
		reason := string(msg.Payload)
		e.pool.Put(msg.Payload)
		return nil, fmt.Errorf("edge: origin: %s", reason)
	}
	if typ != wire.TypeChunkData {
		e.pool.Put(msg.Payload)
		u.breakConn()
		return nil, fmt.Errorf("edge: upstream reply type %v", typ)
	}
	ent, err := newEntry(k, msg.Payload, &e.pool)
	if err != nil {
		u.breakConn()
		return nil, err
	}
	return ent, nil
}

// newEntry wraps a raw ChunkData payload slab as a refcounted cache
// entry with one reference held by the caller. Ownership of slab
// transfers here: on a malformed payload the slab goes straight back to
// the pool.
//
//nslint:slab-transfer slab
func newEntry(k Key, slab []byte, pool *par.SlabPool[byte]) (*entry, error) {
	cd, err := wire.DecodeChunkDataAlias(slab)
	if err != nil {
		pool.Put(slab)
		return nil, fmt.Errorf("edge: upstream chunk data: %w", err)
	}
	if cd.Seq != k.Seq {
		pool.Put(slab)
		return nil, fmt.Errorf("edge: origin sent chunk %d, want %d", cd.Seq, k.Seq)
	}
	// The decode validated the framing, so the prefix is everything
	// before the flags byte (see wire.ChunkDataPrefix).
	prefix := slab[:len(slab)-1]
	ent := &entry{key: k, degraded: cd.Degraded, pool: pool}
	ent.prefix = prefix
	ent.crcPrefix = crc32.ChecksumIEEE(prefix)
	ent.slab = slab
	ent.refs.Store(1)
	return ent, nil
}

// breakConn discards a conn after a protocol or I/O failure so the
// next fetch redials.
func (u *upstreamConn) breakConn() {
	if u.conn != nil {
		_ = u.conn.Close()
		u.conn = nil
	}
}

// MetricsHandler serves GET /metrics in Prometheus text format: the
// delivery counters plus the hit-vs-miss serve-latency split that the
// ops runbook keys on (a rising miss histogram with flat hits means
// origin trouble, not edge trouble).
func (e *Edge) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		c := e.Counters()
		media.WriteCounter(w, "neuroscaler_edge_cache_hits_total", "Deliveries served from cache.", c.CacheHits)
		media.WriteCounter(w, "neuroscaler_edge_cache_misses_total", "Leader fetches to the origin.", c.CacheMisses)
		media.WriteCounter(w, "neuroscaler_edge_coalesced_waits_total", "Deliveries that rode another viewer's in-flight fetch.", c.CoalescedWaits)
		media.WriteCounter(w, "neuroscaler_edge_admission_rejects_total", "Fetched entries the popularity sketch declined to cache.", c.AdmissionRejects)
		media.WriteCounter(w, "neuroscaler_edge_evictions_total", "Entries displaced by admission pressure.", c.Evictions)
		media.WriteCounter(w, "neuroscaler_edge_upstream_errors_total", "Failed origin fetches.", c.UpstreamErrors)
		media.WriteCounter(w, "neuroscaler_edge_fanout_pushes_total", "Unsolicited chunk pushes to subscribers.", c.FanoutPushes)
		media.WriteCounter(w, "neuroscaler_edge_fetches_served_total", "Fetch requests answered with chunk data.", c.FetchesServed)
		media.WriteGauge(w, "neuroscaler_edge_subscribers", "Live subscriber registrations.", float64(c.Subscribers))
		media.WriteGauge(w, "neuroscaler_edge_cache_entries", "Resident cache entries.", float64(e.cache.Len()))
		media.WriteGauge(w, "neuroscaler_edge_cache_bytes", "Resident cached payload bytes.", float64(e.cache.Bytes()))
		media.WriteGauge(w, "neuroscaler_edge_amortized_rate", "Fraction of deliveries needing no fresh origin fetch.", c.AmortizedRate())
		e.hitLatency.WritePrometheus(w, "neuroscaler_edge_hit_latency_seconds", "Serve latency of cache-hit deliveries.")
		e.missLatency.WritePrometheus(w, "neuroscaler_edge_miss_latency_seconds", "Serve latency of deliveries that waited on an origin fetch.")
	})
	return mux
}
