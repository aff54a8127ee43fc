package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/edge"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// opKind says what an op record measures.
type opKind uint8

const (
	opIngest   opKind = iota // one chunk upload: due → ack
	opFetch                  // one chunk delivery: due/sent → verified bytes
	opFollower               // a live follower's delivery; its record also carries the glass time
)

// opRec is one finished op. Times are offsets from the run's epoch.
type opRec struct {
	kind   opKind
	failed bool
	hit    bool // delivery served from the edge cache
	due    time.Duration
	done   time.Duration
	// glassDue is, for a follower fetch, when the chunk it fetches was
	// due at the streamer.
	glassDue time.Duration
}

// recorder collects op records from the generator goroutines; each
// goroutine appends to its own log, so recording takes no lock.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	logs  []*opLog
}

type opLog struct{ recs []opRec }

func (r *recorder) newLog() *opLog {
	l := &opLog{recs: make([]opRec, 0, 1<<12)}
	r.mu.Lock()
	r.logs = append(r.logs, l)
	r.mu.Unlock()
	return l
}

func (r *recorder) since(t time.Time) time.Duration { return t.Sub(r.epoch) }
func (r *recorder) now() time.Duration              { return time.Since(r.epoch) }

// reset drops every record; no generator may be running.
func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.logs {
		l.recs = l.recs[:0]
	}
}

func (r *recorder) all() []opRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []opRec
	for _, l := range r.logs {
		out = append(out, l.recs...)
	}
	return out
}

// arrivals is one stream's open-loop schedule: one cycle, `cycle` long,
// of n = rate × cycle arrivals as offsets in [0, cycle). Its gaps are
// the n quantile midpoints of the exponential distribution (scaled to
// sum to the cycle), in an order fixed with the corpus. The schedule
// belongs to the corpus and not to the run seed because at these rates a
// window holds a few hundred arrivals: drawn afresh per seed, one run's
// load is a few percent heavier or burstier than another's and its
// latency percentiles say more about its seed than about the code
// (between ten seeds, p90 on ingest_gpu spread 22 %).
func arrivals(stream int, rate float64, cycle time.Duration) []time.Duration {
	n := int(rate * cycle.Seconds())
	gaps := make([]float64, n)
	sum := 0.0
	for k := range gaps {
		gaps[k] = -math.Log(1 - (float64(k)+0.5)/float64(n))
		sum += gaps[k]
	}
	rng := rand.New(rand.NewSource(corpusSeed*7919 + int64(stream)))
	rng.Shuffle(n, func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
	out := make([]time.Duration, n)
	t := rng.Float64() * gaps[0] // staggers the streams
	for i, g := range gaps {
		out[i] = time.Duration(t / sum * float64(cycle))
		t += g
	}
	return out
}

// unroll lays a cyclic schedule out on a run's timeline. The measured
// window [warm, warm+cycle) is exactly one cycle, entered at `phase`;
// the warm-up is the stretch of the cycle just before it. The run seed
// picks the phase (one for all streams), so every seed measures the same
// arrivals in the same relative order, starting from a different point.
func unroll(cyc []time.Duration, cycle, phase, warm time.Duration) []time.Duration {
	var out []time.Duration
	for lap := time.Duration(-1); lap <= 1; lap++ {
		for _, a := range cyc {
			if at := a + lap*cycle - phase + warm; at >= 0 && at < warm+cycle {
				out = append(out, at)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// phaseOf is the seed's point of entry into a cycle.
func phaseOf(seed int64, cycle time.Duration) time.Duration {
	return time.Duration(rand.New(rand.NewSource(seed)).Int63n(int64(cycle)))
}

// dueOp is one entry of a connection's merged schedule.
type dueOp struct {
	at     time.Duration
	stream int // index into the connection's streams
}

// mergeArrivals builds a connection's schedule from those of its
// streams (stream i of the conn is global stream first+i).
func mergeArrivals(seed int64, first, n int, rate float64, cycle, warm time.Duration) []dueOp {
	var out []dueOp
	for i := 0; i < n; i++ {
		for _, at := range unroll(arrivals(first+i, rate, cycle), cycle, phaseOf(seed, cycle), warm) {
			out = append(out, dueOp{at, i})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].at < out[b].at })
	return out
}

// sleepUntil blocks until the epoch offset `at` and returns how late it
// woke.
func (r *recorder) sleepUntil(at time.Duration) time.Duration {
	if d := at - r.now(); d > 0 {
		time.Sleep(d)
	}
	return r.now() - at
}

// zipf draws ranks 0..n-1 with probability ∝ 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

// rank maps a uniform draw in [0,1) to a rank.
func (z *zipf) rank(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// ingestOp is a chunk on the wire awaiting its ack.
type ingestOp struct {
	due    time.Duration
	stream int
	cycle  int
	span   int64
}

// ingestStream is one stream multiplexed onto an ingestConn; it cycles
// through its video's chunks in order, so the origin's chunk seq n holds
// chunk n mod chunks of the video.
type ingestStream struct {
	id    uint32
	video *video
	next  int
}

// ingestConn is the benchmark's streamer: several streams on one raw
// wire connection, chunks sent as ready payloads, acks matched in FIFO
// order (the origin answers a connection in arrival order).
type ingestConn struct {
	conn    net.Conn
	streams []*ingestStream
	budget  time.Duration
	rec     *recorder
	log     *opLog
	tr      *tracer
	// onAck, when set, is called from the reader with each acked op and
	// the chunk seq the origin assigned.
	onAck func(op ingestOp, stream uint32, seq uint32)

	inflight chan ingestOp
	// acked gets one token per reply read and is closed when the reader
	// exits; sent is owned by the sending goroutine.
	acked    chan struct{}
	sent     int64
	replied  atomic.Int64
	nonAck   atomic.Int64
	readErr  error
	readerWG sync.WaitGroup
}

// dialIngest connects to an origin and announces the given streams.
func dialIngest(addr string, ids []uint32, videoOf func(uint32) *video, budget time.Duration, rec *recorder) (*ingestConn, error) {
	hello, err := streamHello()
	if err != nil {
		return nil, err
	}
	payload, err := wire.EncodeHello(hello)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if rec == nil {
		rec = &recorder{epoch: time.Now()}
	}
	c := &ingestConn{
		conn: conn, budget: budget, rec: rec, log: rec.newLog(),
		// Deep enough for any backlog an open-loop run can build in its
		// window; a full channel would stall the generator and show up as
		// lateness.
		inflight: make(chan ingestOp, 1<<14),
		acked:    make(chan struct{}, 1<<14),
	}
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	for _, id := range ids {
		if err := wire.Write(conn, wire.Message{Type: wire.TypeHello, StreamID: id, Payload: payload}); err != nil {
			conn.Close()
			return nil, err
		}
		reply, err := wire.Read(conn, wire.DefaultMaxPayload)
		if err != nil {
			conn.Close()
			return nil, err
		}
		if reply.Type != wire.TypeAck {
			conn.Close()
			return nil, fmt.Errorf("nsbench: hello for stream %d rejected: %s", id, reply.Payload)
		}
		c.streams = append(c.streams, &ingestStream{id: id, video: videoOf(id)})
	}
	_ = conn.SetDeadline(time.Time{})
	c.readerWG.Add(1)
	go c.readLoop()
	return c, nil
}

// send writes the next chunk of stream i, timed from due.
func (c *ingestConn) send(i int, due time.Duration) error {
	s := c.streams[i]
	cycle := s.next % s.video.chunks()
	s.next++
	op := ingestOp{due: due, stream: i, cycle: cycle}
	op.span = c.tr.begin(spanKey{keyChunk, s.id, int64(cycle)})
	c.sent++
	c.inflight <- op
	_ = c.conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	return wire.Write(c.conn, wire.Message{
		Type: wire.TypeChunk, StreamID: s.id, Seq: uint32(c.sent),
		Payload: s.video.payloads[cycle], Budget: c.budget,
	})
}

// sendWait sends one chunk and waits for its reply (set-up traffic).
func (c *ingestConn) sendWait(i int) error {
	if err := c.send(i, c.rec.now()); err != nil {
		return err
	}
	return c.drain()
}

func (c *ingestConn) readLoop() {
	defer c.readerWG.Done()
	defer close(c.acked)
	for {
		_ = c.conn.SetReadDeadline(time.Now().Add(2 * time.Minute))
		reply, err := wire.Read(c.conn, wire.DefaultMaxPayload)
		if err != nil {
			c.readErr = err
			return
		}
		op := <-c.inflight
		now := time.Now()
		s := c.streams[op.stream]
		ok := reply.Type == wire.TypeAck
		if !ok {
			c.nonAck.Add(1)
			complain("stream %d chunk answered %v: %s", s.id, reply.Type, reply.Payload)
		}
		c.tr.end(op.span, "chunk", 0, c.rec.epoch.Add(op.due), now, s.id, int64(reply.Seq),
			spanKey{keyChunk, s.id, int64(op.cycle)})
		c.log.recs = append(c.log.recs, opRec{
			kind: opIngest, failed: !ok, due: op.due, done: c.rec.since(now),
		})
		if ok && c.onAck != nil {
			c.onAck(op, s.id, reply.Seq)
		}
		c.replied.Add(1)
		c.acked <- struct{}{}
	}
}

// failed is the number of sent chunks that did not come back acked: a
// typed error reply, or no reply at all because the conn broke.
func (c *ingestConn) failed() int64 {
	return c.nonAck.Load() + c.sent - c.replied.Load()
}

// close says goodbye and joins the reader; call it from the sending
// goroutine's owner once sending has stopped.
func (c *ingestConn) close() {
	_ = c.conn.SetWriteDeadline(time.Now().Add(time.Second))
	_ = wire.Write(c.conn, wire.Message{Type: wire.TypeGoodbye})
	_ = c.conn.Close()
	c.readerWG.Wait()
}

// runClosed keeps `window` chunks outstanding, rotating over the conn's
// streams, until stop closes; it returns once every reply is in.
func (c *ingestConn) runClosed(window int, stop <-chan struct{}) error {
	outstanding, next := 0, 0
	for {
		for outstanding < window {
			select {
			case <-stop:
				return c.drain()
			default:
			}
			if err := c.send(next%len(c.streams), c.rec.now()); err != nil {
				return err
			}
			next++
			outstanding++
		}
		if _, ok := <-c.acked; !ok {
			return fmt.Errorf("nsbench: ingest conn broke: %w", c.readErr)
		}
		outstanding--
	}
}

// runOpen sends the schedule's chunks when they fall due and returns
// once every reply is in; late collects how late each send started.
func (c *ingestConn) runOpen(schedule []dueOp, late *[]time.Duration) error {
	for _, op := range schedule {
		*late = append(*late, c.rec.sleepUntil(op.at))
		if err := c.send(op.stream, op.at); err != nil {
			return err
		}
	}
	return c.drain()
}

// drain waits until every chunk sent so far has its reply.
func (c *ingestConn) drain() error {
	for c.replied.Load() < c.sent {
		if _, ok := <-c.acked; !ok {
			return fmt.Errorf("nsbench: ingest conn broke: %w", c.readErr)
		}
	}
	return nil
}

// fetchKey names a chunk a viewer asks for and the video chunk whose
// reference bytes it must equal.
type fetchKey struct {
	stream uint32
	seq    uint32
	video  *video
	chunk  int
}

// viewer is one edge.Client connection and the checks a delivery must
// pass to count as served.
type viewer struct {
	client *edge.Client
	rec    *recorder
	tr     *tracer
}

func dialViewer(addr string, rec *recorder, tr *tracer) (*viewer, error) {
	c, err := edge.Dial(addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return &viewer{client: c, rec: rec, tr: tr}, nil
}

var errMismatch = errors.New("nsbench: delivered bytes differ from the reference container")

// fetch runs one delivery and verifies it: no error reply, not degraded,
// the reference length, and — when hash is set — the reference SHA-256.
func (v *viewer) fetch(k fetchKey, hash bool) (hit bool, err error) {
	cd, err := v.client.FetchChunk(k.stream, k.seq, 0)
	if err != nil {
		return false, err
	}
	switch {
	case cd.Degraded:
		return cd.CacheHit, fmt.Errorf("nsbench: stream %d chunk %d delivered degraded", k.stream, k.seq)
	case len(cd.Data) != len(k.video.refs[k.chunk]):
		return cd.CacheHit, errMismatch
	case hash && sha256.Sum256(cd.Data) != k.video.sums[k.chunk]:
		return cd.CacheHit, errMismatch
	}
	return cd.CacheHit, nil
}

// timedFetch is fetch as a recorded op, timed from due.
func (v *viewer) timedFetch(log *opLog, kind opKind, k fetchKey, hash bool, due, glassDue time.Duration) {
	key := spanKey{keyFetch, k.stream, int64(k.seq)}
	id := v.tr.begin(key)
	hit, err := v.fetch(k, hash)
	now := time.Now()
	if err != nil {
		complain("fetch of stream %d chunk %d: %v", k.stream, k.seq, err)
	}
	v.tr.end(id, "fetch", 0, v.rec.epoch.Add(due), now, k.stream, int64(k.seq), key)
	log.recs = append(log.recs, opRec{
		kind: kind, failed: err != nil, hit: hit,
		due: due, done: v.rec.since(now), glassDue: glassDue,
	})
}

// complain reports a failed op on the log, the first few times.
func complain(format string, args ...any) {
	if complaints.Add(1) <= 10 {
		fmt.Fprintf(logw, "nsbench: failed op: "+format+"\n", args...)
	}
}

var complaints atomic.Int32

// hashSampleRate is the share of in-window deliveries whose SHA-256 is
// checked; the post-window sweep checks every key.
const hashSampleRate = 64
