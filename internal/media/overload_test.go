package media

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/faults"
	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/sched"
	"github.com/neuroscaler/neuroscaler/internal/sr"
	"github.com/neuroscaler/neuroscaler/internal/vcodec"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

func silentLogf(string, ...any) {}

// --- queue discipline ---

func TestJobQueueEDFOrder(t *testing.T) {
	q := newJobQueue(4)
	now := time.Now()
	entries := []*jobEntry{
		{msg: wire.Message{Seq: 1}},                                      // no deadline: serves last
		{msg: wire.Message{Seq: 2}, deadline: now.Add(time.Second)},      // middle
		{msg: wire.Message{Seq: 3}, deadline: now.Add(time.Millisecond)}, // earliest: serves first
		{msg: wire.Message{Seq: 4}},                                      // no deadline: FIFO after seq 1
	}
	for _, e := range entries {
		if !q.push(e) {
			t.Fatalf("push seq %d rejected with room to spare", e.msg.Seq)
		}
	}
	want := []uint32{3, 2, 1, 4}
	for _, seq := range want {
		e, ok := q.pop()
		if !ok {
			t.Fatal("queue closed unexpectedly")
		}
		if e.msg.Seq != seq {
			t.Fatalf("popped seq %d, want %d (EDF then FIFO)", e.msg.Seq, seq)
		}
	}
}

func TestJobQueueShedsWhenFull(t *testing.T) {
	q := newJobQueue(2)
	if !q.push(&jobEntry{msg: wire.Message{Seq: 1}}) || !q.push(&jobEntry{msg: wire.Message{Seq: 2}}) {
		t.Fatal("push rejected below depth")
	}
	if q.push(&jobEntry{msg: wire.Message{Seq: 3}}) {
		t.Fatal("push accepted beyond depth; overload must shed, not queue")
	}
	if q.size() != 2 {
		t.Fatalf("size = %d, want 2", q.size())
	}
}

func TestJobQueueCloseUnblocksPop(t *testing.T) {
	q := newJobQueue(1)
	done := make(chan bool, 1)
	go func() {
		_, ok := q.pop()
		done <- ok
	}()
	q.close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("pop on a closed empty queue reported an entry")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pop did not unblock on close")
	}
	if q.push(&jobEntry{}) {
		t.Fatal("push accepted after close")
	}
}

// --- admission ---

func TestTokenBucketAdmission(t *testing.T) {
	b := newTokenBucket(10, 2) // 10 tokens/s, burst 2
	t0 := time.Unix(1000, 0)
	if !b.take(t0) || !b.take(t0) {
		t.Fatal("burst tokens rejected")
	}
	if b.take(t0) {
		t.Fatal("third take admitted with an empty bucket")
	}
	// 100ms refills exactly one token at 10/s.
	t1 := t0.Add(100 * time.Millisecond)
	if !b.take(t1) {
		t.Fatal("refilled token rejected")
	}
	if b.take(t1) {
		t.Fatal("take admitted beyond the refill")
	}
	// A long idle period refills to burst, never beyond.
	t2 := t1.Add(time.Hour)
	if !b.take(t2) || !b.take(t2) {
		t.Fatal("bucket did not refill to burst")
	}
	if b.take(t2) {
		t.Fatal("bucket refilled beyond burst depth")
	}
}

// --- brownout ladder ---

func TestBrownoutLadderHysteresis(t *testing.T) {
	bud := &sched.Budget{}
	b := newBrownout(BrownoutConfig{
		HighDelay:    100 * time.Millisecond,
		LowDelay:     10 * time.Millisecond,
		HoldOff:      time.Second,
		MaxOccupancy: 0.5,
	}, bud)
	if b == nil {
		t.Fatal("enabled config produced a nil controller")
	}
	t0 := time.Unix(1000, 0)
	high, low, mid := 200*time.Millisecond, 5*time.Millisecond, 50*time.Millisecond

	b.observe(t0, high, 0.9)
	if b.Level() != BrownoutShrink {
		t.Fatalf("level = %d after first high observation, want %d", b.Level(), BrownoutShrink)
	}
	if got := bud.Fraction(1, 0.15); got != 0.075 {
		t.Fatalf("effective fraction = %v at shrink level, want 0.075", got)
	}
	// Inside the dwell: no ratcheting, however bad the signal.
	b.observe(t0.Add(500*time.Millisecond), high, 0.9)
	if b.Level() != BrownoutShrink {
		t.Fatalf("level stepped inside the HoldOff dwell (level %d)", b.Level())
	}
	b.observe(t0.Add(1*time.Second), high, 0.9)
	if b.Level() != BrownoutBatch || b.batchBoost() != 2 {
		t.Fatalf("level = %d boost = %d, want batch level with boost 2", b.Level(), b.batchBoost())
	}
	b.observe(t0.Add(2*time.Second), high, 0.9)
	if b.Level() != BrownoutFloor || !b.floorLowPriority() {
		t.Fatalf("level = %d, want floor with low-priority flooring", b.Level())
	}
	// At MaxLevel high delay holds, never overshoots.
	b.observe(t0.Add(3*time.Second), high, 0.9)
	if b.Level() != BrownoutFloor {
		t.Fatalf("level = %d past MaxLevel", b.Level())
	}
	// Low delay alone is not enough to step down: the backlog must drain.
	b.observe(t0.Add(4*time.Second), low, 0.9)
	if b.Level() != BrownoutFloor {
		t.Fatal("stepped down with the in-flight backlog still high")
	}
	// Mid-band delay holds the level (hysteresis).
	b.observe(t0.Add(5*time.Second), mid, 0.1)
	if b.Level() != BrownoutFloor {
		t.Fatal("stepped down inside the hysteresis band")
	}
	// Low delay + drained backlog: one step per dwell, back to off.
	for i, want := range []int{BrownoutBatch, BrownoutShrink, BrownoutOff} {
		b.observe(t0.Add(time.Duration(6+i)*time.Second), low, 0.1)
		if b.Level() != want {
			t.Fatalf("recovery step %d: level = %d, want %d", i, b.Level(), want)
		}
	}
	if got := bud.Fraction(1, 0.15); got != 0.15 {
		t.Fatalf("effective fraction = %v after recovery, want 0.15 untouched", got)
	}
	tr := b.Transitions()
	if tr[BrownoutFloor] != 1 || tr[BrownoutOff] != 1 {
		t.Fatalf("transitions = %v, want one floor entry and one recovery", tr)
	}

	// A nil controller (disabled) is a safe no-op.
	var off *brownout
	off.observe(t0, high, 1)
	if off.Level() != BrownoutOff || off.batchBoost() != 1 || off.floorLowPriority() {
		t.Fatal("nil brownout controller is not a no-op")
	}
}

// --- pool deadline ladder (satellite: backoff bounded by budget) ---

func TestPoolBackoffBoundedByDeadline(t *testing.T) {
	e := &ctrlEnhancer{failWith: errors.New("boom")}
	p, err := NewEnhancerPool([]Replica{StaticReplica("down", e)}, PoolConfig{
		MaxRetries:       8,
		RetryBaseDelay:   100 * time.Millisecond, // legacy ladder would sleep for seconds
		RetryMaxDelay:    time.Second,
		BreakerThreshold: 100, // keep the breaker out of this test
		Seed:             1,
		Logf:             silentLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	start := time.Now()
	_, err = p.Enhance(1, wire.AnchorJob{Packet: 0, Deadline: start.Add(40 * time.Millisecond)})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	// The ladder must exit when the budget runs out: one truncated backoff
	// sleep, not the multi-second legacy schedule.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("deadline-capped ladder took %v, want well under the legacy backoff schedule", elapsed)
	}
	if c := p.Counters(); c.DeadlineExpired == 0 {
		t.Error("DeadlineExpired counter not charged")
	}

	// An already-expired job is refused before any attempt or sleep.
	start = time.Now()
	_, err = p.Enhance(1, wire.AnchorJob{Packet: 1, Deadline: start.Add(-time.Second)})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired job err = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("expired job burned %v before returning", elapsed)
	}

	// A deadline-free job still walks the full legacy ladder shape and
	// comes back as unavailable, not deadline-expired.
	q, err := NewEnhancerPool([]Replica{StaticReplica("down", e)}, quickPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := q.Enhance(1, wire.AnchorJob{Packet: 2}); !errors.Is(err, ErrEnhancerUnavailable) {
		t.Fatalf("legacy job err = %v, want ErrEnhancerUnavailable", err)
	}
}

// gateEnhancer fails on demand and can hold calls open on a gate, so a
// test can pin the breaker's half-open probe in flight.
type gateEnhancer struct {
	mu        sync.Mutex
	failWith  error
	gate      chan struct{} // non-nil: Enhance blocks on it after signaling started
	started   chan struct{}
	successes int
}

func (g *gateEnhancer) set(fail error, gate, started chan struct{}) {
	g.mu.Lock()
	g.failWith, g.gate, g.started = fail, gate, started
	g.mu.Unlock()
}

func (g *gateEnhancer) succeeded() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.successes
}

func (g *gateEnhancer) Enhance(streamID uint32, job wire.AnchorJob) (wire.AnchorResult, error) {
	g.mu.Lock()
	fail, gate, started := g.failWith, g.gate, g.started
	g.mu.Unlock()
	if fail != nil {
		return wire.AnchorResult{}, fail
	}
	if gate != nil {
		if started != nil {
			select {
			case started <- struct{}{}:
			default:
			}
		}
		<-gate
	}
	g.mu.Lock()
	g.successes++
	g.mu.Unlock()
	return wire.AnchorResult{Packet: job.Packet, Encoded: []byte{1}}, nil
}

// TestPoolBreakerHalfOpenExactlyOnce pins a recovered replica's half-open
// probe in flight and fires concurrent jobs at it: every job must resolve
// exactly once — one success each, no duplicated execution — and the
// breaker must close off the single probe.
func TestPoolBreakerHalfOpenExactlyOnce(t *testing.T) {
	e := &gateEnhancer{failWith: errors.New("down")}
	cfg := PoolConfig{
		MaxRetries:       2,
		RetryBaseDelay:   100 * time.Microsecond,
		RetryMaxDelay:    time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  5 * time.Millisecond,
		Seed:             11,
		Logf:             silentLogf,
	}
	p, err := NewEnhancerPool([]Replica{StaticReplica("solo", e)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Open the breaker: one job's three attempts all fail.
	if _, err := p.Enhance(1, wire.AnchorJob{Packet: 0}); err == nil {
		t.Fatal("dead replica succeeded")
	}
	if st := p.ReplicaStats()[0].State; st != BreakerOpen {
		t.Fatalf("breaker = %v after threshold failures, want open", st)
	}

	// Replica recovers, but every call now parks on the gate.
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	e.set(nil, gate, started)
	time.Sleep(cfg.BreakerCooldown + 2*time.Millisecond)

	// The probe: admitted half-open, pinned in flight on the gate.
	probeErr := make(chan error, 1)
	go func() {
		_, err := p.Enhance(1, wire.AnchorJob{Packet: 100})
		probeErr <- err
	}()
	select {
	case <-started:
	case <-time.After(2 * time.Second):
		t.Fatal("probe never reached the replica")
	}

	// Concurrent deadlined jobs arrive during the probe window. The
	// half-open breaker rejects them; their budget keeps them retrying
	// until the probe's outcome closes the breaker.
	const n = 4
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.Enhance(1, wire.AnchorJob{Packet: i + 1, Deadline: time.Now().Add(5 * time.Second)})
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // let them bang on the half-open breaker
	close(gate)                       // probe completes, breaker closes
	if err := <-probeErr; err != nil {
		t.Fatalf("probe call failed: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent job %d failed across the probe window: %v", i, err)
		}
	}
	if st := p.ReplicaStats()[0].State; st != BreakerClosed {
		t.Fatalf("breaker = %v after successful probe, want closed", st)
	}
	// Exactly once: one execution per resolved job (probe + n), nothing
	// double-delivered while the breaker flapped.
	if got := e.succeeded(); got != n+1 {
		t.Fatalf("replica executed %d jobs, want exactly %d (probe + %d concurrent)", got, n+1, n)
	}
	if c := p.Counters(); c.BreakerCloses == 0 {
		t.Error("breaker close not recorded")
	}
	requireLedgerClosed(t, p)
}

// --- typed overload errors across the wire ---

// gateModel wraps an sr.Model so the first Apply parks on a gate,
// pinning an EnhancerServer worker mid-job.
type gateModel struct {
	inner   sr.Model
	gate    chan struct{}
	started chan struct{}
}

func (m *gateModel) Config() sr.ModelConfig { return m.inner.Config() }

func (m *gateModel) Apply(lr *frame.Frame, displayIndex int) (*frame.Frame, error) {
	select {
	case m.started <- struct{}{}:
	default:
	}
	<-m.gate
	return m.inner.Apply(lr, displayIndex)
}

// TestEnhancerServerTypedOverloadReplies drives a single-worker enhancer
// replica into queue-full and queue-expiry and checks both outcomes cross
// the wire as typed errors: ErrShed for the job the full queue rejected,
// ErrDeadlineExceeded for the job whose budget ran out while queued.
func TestEnhancerServerTypedOverloadReplies(t *testing.T) {
	const streamID = 9
	provider, store := contentOracle(t, testGOP)
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	blockingProvider := func(id uint32, h wire.Hello) (sr.Model, error) {
		m, err := provider(id, h)
		if err != nil {
			return nil, err
		}
		return &gateModel{inner: m, gate: gate, started: started}, nil
	}
	local, err := NewLocalEnhancer(blockingProvider)
	if err != nil {
		t.Fatal(err)
	}
	es, err := NewEnhancerServerWith("127.0.0.1:0", local, EnhancerServerConfig{
		MaxConcurrentJobs: 1,
		JobQueueDepth:     1,
		Logf:              silentLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()

	conn, err := net.Dial("tcp", es.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	helloPayload, err := wire.EncodeHello(testHello())
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.Write(conn, wire.Message{Type: wire.TypeHello, StreamID: streamID, Payload: helloPayload}); err != nil {
		t.Fatal(err)
	}
	if reply, err := wire.Read(conn, wire.DefaultMaxPayload); err != nil || reply.Type != wire.TypeAck {
		t.Fatalf("hello reply = %v, %v", reply.Type, err)
	}

	lr := lrFromHR(t, store.get(streamID))
	sendJob := func(seq uint32, budget time.Duration) {
		t.Helper()
		var job wire.Vec
		job.PutAnchorBatchJob([]wire.AnchorJob{{Packet: 0, DisplayIndex: 0, QP: 30, Frame: lr[0]}})
		msg := wire.Message{Type: wire.TypeAnchorBatchJob, StreamID: streamID, Seq: seq,
			Payload: bytes.Join(job.Parts(), nil), Budget: budget}
		if err := wire.Write(conn, msg); err != nil {
			t.Fatalf("send job %d: %v", seq, err)
		}
	}

	sendJob(1, 0) // occupies the single worker, parked on the gate
	select {
	case <-started:
	case <-time.After(2 * time.Second):
		t.Fatal("worker never started job 1")
	}
	sendJob(2, 30*time.Millisecond) // queued behind the pinned worker
	sendJob(3, 30*time.Millisecond) // queue full (depth 1): shed immediately

	// The shed reply is written by admission while job 1 is still pinned.
	reply, err := wire.Read(conn, wire.DefaultMaxPayload)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Seq != 3 || reply.Type != wire.TypeError {
		t.Fatalf("first reply = seq %d type %v, want the shed error for seq 3", reply.Seq, reply.Type)
	}
	if err := remoteError("test", reply.Payload); !errors.Is(err, ErrShed) {
		t.Fatalf("shed reply did not map to ErrShed: %v", err)
	}

	// Let job 2's budget lapse while it waits, then release the worker.
	time.Sleep(60 * time.Millisecond)
	close(gate)

	if reply, err = wire.Read(conn, wire.DefaultMaxPayload); err != nil || reply.Seq != 1 || reply.Type != wire.TypeAnchorBatchResult {
		t.Fatalf("job 1 reply = seq %d type %v err %v, want a batch result", reply.Seq, reply.Type, err)
	}
	if outs, err := wire.DecodeAnchorBatchResult(reply.Payload); err != nil || len(outs) != 1 || outs[0].Err != nil || len(outs[0].Res.Encoded) == 0 {
		t.Fatalf("job 1 outcomes = %+v, %v; want one enhanced anchor", outs, err)
	}
	if reply, err = wire.Read(conn, wire.DefaultMaxPayload); err != nil || reply.Seq != 2 || reply.Type != wire.TypeError {
		t.Fatalf("job 2 reply = seq %d type %v err %v, want a deadline error", reply.Seq, reply.Type, err)
	}
	if err := remoteError("test", reply.Payload); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired reply did not map to ErrDeadlineExceeded: %v", err)
	}

	c := es.Counters()
	if c.JobsShed != 1 || c.JobsExpired != 1 {
		t.Fatalf("counters = %+v, want one shed and one expired", c)
	}

	// A frame of an unassigned type never reaches a handler: the server's
	// reader refuses it as corrupt and drops the connection without a
	// reply.
	var frame bytes.Buffer
	if err := wire.Write(&frame, wire.Message{Type: wire.TypePing, Seq: 9}); err != nil {
		t.Fatal(err)
	}
	raw := frame.Bytes()
	raw[2] = 0
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if reply, err := wire.Read(conn, wire.DefaultMaxPayload); err == nil {
		t.Fatalf("unassigned frame type answered with %v", reply.Type)
	}
}

// --- ingest admission control ---

func TestIngestTokenBucketShedsTypedAndSurvives(t *testing.T) {
	const streamID = 31
	provider, store := contentOracle(t, 3*testGOP)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", local, ServerConfig{
		AnchorFraction:   0.15,
		StreamChunkRate:  0.5, // 2s per refill: wide enough that slow encodes can't sneak a token in
		StreamChunkBurst: 1,
		Logf:             silentLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	streamer, err := NewStreamer(srv.Addr(), streamID, testHello())
	if err != nil {
		t.Fatal(err)
	}
	defer streamer.Close()
	streamer.Timeout = 10 * time.Second
	lr := lrFromHR(t, store.get(streamID))

	// Pipeline the first two sends so only one encode separates their
	// admission instants — well inside the 2s refill window.
	p0, err := streamer.SendChunkAsync(lr[:testGOP])
	if err != nil {
		t.Fatalf("first chunk: %v", err)
	}
	p1, err := streamer.SendChunkAsync(lr[testGOP : 2*testGOP])
	if err != nil {
		t.Fatalf("second chunk: %v", err)
	}
	if seq, err := p0.Wait(); err != nil || seq != 0 {
		t.Fatalf("first chunk ack: seq=%d err=%v", seq, err)
	}
	// Immediately over-rate: typed shed, not a dead connection.
	if _, err := p1.Wait(); !errors.Is(err, ErrShed) {
		t.Fatalf("over-rate chunk err = %v, want ErrShed", err)
	}
	// After the bucket refills the same connection keeps working, and the
	// store shows no gap: shed chunks were never admitted. Retry until the
	// refill lands rather than guessing the clock.
	var seq int
	for expire := time.Now().Add(30 * time.Second); ; {
		seq, err = streamer.SendChunk(lr[2*testGOP : 3*testGOP])
		if err == nil {
			break
		}
		if !errors.Is(err, ErrShed) {
			t.Fatalf("post-refill chunk: %v", err)
		}
		if time.Now().After(expire) {
			t.Fatal("token bucket never refilled")
		}
		time.Sleep(200 * time.Millisecond)
	}
	if seq != 1 {
		t.Fatalf("post-refill chunk stored at seq %d, want 1 (shed chunk skipped)", seq)
	}
	c := srv.Counters()
	if c.ChunksShed < 1 {
		t.Fatalf("ChunksShed = %d, want at least 1", c.ChunksShed)
	}
	if c.ChunksProcessed != 2 {
		t.Fatalf("ChunksProcessed = %d, want 2", c.ChunksProcessed)
	}
}

// --- no-op determinism (satellite: unloaded deadline plumbing) ---

// runStreamWithBudget is runStream with deadline budgets armed end to
// end: the streamer stamps every chunk and the server backstops with the
// same default.
func runStreamWithBudget(t *testing.T, cfg ServerConfig, chunks int, budget time.Duration,
	makeEnhancer func(t *testing.T, provider ModelProvider) AnchorEnhancer) pipelineRun {
	t.Helper()
	const streamID = 77
	frames := chunks * testGOP
	provider, store := contentOracle(t, frames)
	enh := makeEnhancer(t, provider)
	if c, ok := enh.(interface{ Close() error }); ok {
		defer c.Close()
	}
	cfg.Logf = silentLogf
	cfg.DefaultChunkBudget = budget
	srv, err := NewServer("127.0.0.1:0", enh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	streamer, err := NewStreamer(srv.Addr(), streamID, testHello())
	if err != nil {
		t.Fatal(err)
	}
	defer streamer.Close()
	streamer.ChunkBudget = budget
	lr := lrFromHR(t, store.get(streamID))
	for i := 0; i < chunks; i++ {
		if _, err := streamer.SendChunk(lr[i*testGOP : (i+1)*testGOP]); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	out := pipelineRun{}
	for seq := 0; seq < chunks; seq++ {
		data, err := srv.Store().Chunk(streamID, seq)
		if err != nil {
			t.Fatalf("chunk %d missing: %v", seq, err)
		}
		_, deg, _, err := srv.Store().ChunkState(streamID, seq)
		if err != nil {
			t.Fatal(err)
		}
		out.containers = append(out.containers, data)
		out.degraded = append(out.degraded, deg)
	}
	return out
}

// TestDeadlineNoOpByteIdentical is the unloaded-path contract: with a
// budget nobody comes close to spending, the whole deadline plane —
// versioned wire frames, per-job deadlines, the budget-capped retry
// ladder — must leave stored bytes identical to the legacy deadline-free
// serial run, across the in-flight × batch knob matrix.
func TestDeadlineNoOpByteIdentical(t *testing.T) {
	const chunks = 3
	serial := runStream(t, ServerConfig{AnchorFraction: 0.15, MaxInFlightAnchors: -1, PipelineDepth: -1},
		chunks, false, fourReplicaPool, nil)
	for _, inflight := range []int{1, 4} {
		for _, batch := range []int{1, 4} {
			name := fmt.Sprintf("inflight-%d-batch-%d", inflight, batch)
			t.Run(name, func(t *testing.T) {
				got := runStreamWithBudget(t, ServerConfig{
					AnchorFraction:     0.15,
					MaxInFlightAnchors: inflight,
					MaxAnchorBatch:     batch,
				}, chunks, time.Hour, fourReplicaPool)
				requireIdenticalRuns(t, serial, got, name)
			})
		}
	}
}

// --- overload chaos (tentpole) ---

// TestChaosOverloadBurstBoundedLatency drives ~5x sustained burst
// arrivals into slow replicas and requires the overload plane to hold
// the line: every chunk acked and stored (degraded at worst), p99
// admit-to-store within twice the chunk budget, the anchor ledger
// balanced, the brownout ladder engaged, and every goroutine gone after
// teardown.
//
// Chunks are pre-encoded and blasted over a raw wire connection: the
// burst must reach the server's admission point back-to-back, and an
// encode inside the send loop would pace arrivals by CPU speed (and
// erase the burst entirely under the race detector).
func TestChaosOverloadBurstBoundedLatency(t *testing.T) {
	const (
		streamID = 42
		chunks   = 25
		budget   = 1024 * time.Millisecond
	)
	provider, store := contentOracle(t, chunks*testGOP)
	base := runtime.NumGoroutine()

	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	slow := &faults.SlowEnhancer{Inner: local, Delay: 450 * time.Millisecond}
	pool, err := NewEnhancerPool([]Replica{
		StaticReplica("slow-a", slow),
		StaticReplica("slow-b", slow),
	}, chaosPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", pool, ServerConfig{
		AnchorFraction:     0.15,
		MaxInFlightAnchors: 4,
		PipelineDepth:      2,
		DefaultChunkBudget: budget,
		Brownout:           BrownoutConfig{HighDelay: 50 * time.Millisecond, HoldOff: 20 * time.Millisecond},
		Logf:               silentLogf,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-encode every chunk the way a Streamer would, resolving codec
	// defaults so both sides agree.
	hello := testHello()
	enc, err := vcodec.NewEncoder(hello.Config)
	if err != nil {
		t.Fatal(err)
	}
	hello.Config = enc.Config()
	// Seed the oracle store before the handshake; registration re-uses
	// the cached frames.
	if _, err := provider(streamID, hello); err != nil {
		t.Fatal(err)
	}
	lr := lrFromHR(t, store.get(streamID))
	payloads := make([][]byte, chunks)
	for i := 0; i < chunks; i++ {
		pkts, err := enc.EncodeChunk(lr[i*testGOP : (i+1)*testGOP])
		if err != nil {
			t.Fatalf("encode chunk %d: %v", i, err)
		}
		raw := make([][]byte, len(pkts))
		for j, p := range pkts {
			raw[j] = p.Data
		}
		payloads[i] = wire.EncodeChunk(raw)
	}

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	helloPayload, err := wire.EncodeHello(hello)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.Write(conn, wire.Message{Type: wire.TypeHello, StreamID: streamID, Payload: helloPayload}); err != nil {
		t.Fatal(err)
	}
	if reply, err := wire.Read(conn, wire.DefaultMaxPayload); err != nil || reply.Type != wire.TypeAck {
		t.Fatalf("hello reply = %v, %v", reply.Type, err)
	}

	// Ack reader: the server answers in arrival order, one ack per chunk.
	ackErr := make(chan error, 1)
	go func() {
		for i := 0; i < chunks; i++ {
			reply, err := wire.Read(conn, wire.DefaultMaxPayload)
			if err != nil {
				ackErr <- fmt.Errorf("ack %d: %w", i, err)
				return
			}
			if reply.Type != wire.TypeAck || int(reply.Seq) != i {
				ackErr <- fmt.Errorf("ack %d: type %v seq %d (payload %q)", i, reply.Type, reply.Seq, reply.Payload)
				return
			}
		}
		ackErr <- nil
	}()

	arrivals := faults.BurstSchedule{BurstLen: 5, Quiet: 10 * time.Millisecond}
	t.Logf("arrival schedule: %s, chunk budget %v, replica delay 450ms", arrivals.Describe(), budget)
	for i := 0; i < chunks; i++ {
		if gap := arrivals.Gap(i); gap > 0 {
			time.Sleep(gap)
		}
		msg := wire.Message{Type: wire.TypeChunk, StreamID: streamID, Seq: uint32(i + 1),
			Payload: payloads[i], Budget: budget}
		if err := wire.Write(conn, msg); err != nil {
			t.Fatalf("send chunk %d: %v", i, err)
		}
	}
	select {
	case err := <-ackErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("acks did not drain; the serving path wedged under overload")
	}

	c := srv.Counters()
	requireAnchorLedger(t, c)
	if c.ChunksProcessed != chunks {
		t.Errorf("ChunksProcessed = %d, want %d", c.ChunksProcessed, chunks)
	}
	if got := srv.Store().ChunkCount(streamID); got != chunks {
		t.Errorf("stored %d chunks, want %d", got, chunks)
	}
	// The deadline plane must actually have fired: a 5x burst into
	// replicas this slow cannot clear every chunk in budget.
	if c.ChunksExpired+c.AnchorsExpired == 0 {
		t.Errorf("no expirations under 5x overload: counters %+v", c)
	}
	if tr := srv.brownout.Transitions(); tr == nil || tr[BrownoutShrink] == 0 {
		t.Errorf("brownout ladder never engaged: transitions %v", tr)
	}
	p99 := srv.AdmitToStoreP99()
	if p99 <= 0 || p99 > 2*budget {
		t.Errorf("admit-to-store p99 = %v, want within (0, %v]", p99, 2*budget)
	}
	t.Logf("p99 admit-to-store %v; counters %+v; pool %+v", p99, c, pool.Counters())

	// Teardown drains everything: no goroutine or queue growth survives.
	_ = wire.Write(conn, wire.Message{Type: wire.TypeGoodbye, StreamID: streamID})
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	requireLedgerClosed(t, pool)
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, base)
}

// TestMetricsEndpoint checks the Prometheus exposition: the overload
// observables — latency histograms, shed/expired counters, the brownout
// gauge, and the pool's fault counters — must all appear in text format.
func TestMetricsEndpoint(t *testing.T) {
	const streamID = 23
	provider, store := contentOracle(t, testGOP)
	pool := fourReplicaPool(t, provider)
	defer pool.(io.Closer).Close()
	srv, err := NewServer("127.0.0.1:0", pool, ServerConfig{
		AnchorFraction:     0.15,
		DefaultChunkBudget: time.Hour,
		Brownout:           BrownoutConfig{HighDelay: time.Hour},
		Logf:               silentLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	streamer, err := NewStreamer(srv.Addr(), streamID, testHello())
	if err != nil {
		t.Fatal(err)
	}
	defer streamer.Close()
	lr := lrFromHR(t, store.get(streamID))
	if _, err := streamer.SendChunk(lr[:testGOP]); err != nil {
		t.Fatal(err)
	}

	httpSrv := httptest.NewServer(srv.DistributionHandler())
	defer httpSrv.Close()
	text := getMetrics(t, httpSrv.URL)
	for _, want := range []string{
		"neuroscaler_ingest_queue_delay_seconds_bucket{le=",
		"neuroscaler_admit_to_store_seconds_sum",
		"neuroscaler_admit_to_store_seconds_count 1",
		"neuroscaler_chunks_processed_total 1",
		"neuroscaler_chunks_shed_total",
		"neuroscaler_chunks_expired_total",
		"neuroscaler_anchors_selected_total",
		"neuroscaler_anchors_expired_total",
		"neuroscaler_brownout_level 0",
		"neuroscaler_anchors_in_flight",
		"neuroscaler_pool_calls_total",
		"neuroscaler_pool_deadline_expired_total",
		"# TYPE neuroscaler_admit_to_store_seconds histogram",
		// Per-replica series: the chunk's two anchors were placed on the
		// idle four-replica pool one each — a round trip and an anchor on
		// two replicas, nothing on the others — and every ledger is closed.
		"# TYPE neuroscaler_pool_replica_dispatches_total counter",
		"# TYPE neuroscaler_pool_replica_outstanding gauge",
		`neuroscaler_pool_replica_outstanding{replica="r0"} 0`,
		`neuroscaler_pool_replica_outstanding{replica="r3"} 0`,
		// Breaker state by name, one sample per replica.
		`neuroscaler_pool_replica_breaker_state{replica="r0",state="closed"} 1`,
		`neuroscaler_pool_replica_breaker_state{replica="r3",state="closed"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	for _, name := range []string{"neuroscaler_pool_replica_dispatches_total", "neuroscaler_pool_replica_anchors_total"} {
		ones := 0
		for i := 0; i < 4; i++ {
			if strings.Contains(text, fmt.Sprintf("%s{replica=\"r%d\"} 1\n", name, i)) {
				ones++
			}
		}
		if ones != 2 {
			t.Errorf("%s: %d replicas carry exactly one, want 2", name, ones)
		}
	}

	// ReplicaStats is the same per-replica view in process.
	replicas := pool.(*EnhancerPool).ReplicaStats()
	if len(replicas) != 4 {
		t.Fatalf("ReplicaStats = %+v, want 4 replicas", replicas)
	}
	var anchors uint64
	for _, st := range replicas {
		anchors += st.Anchors
	}
	if r0 := replicas[0]; anchors != 2 || r0.ID != "r0" || r0.State != BreakerClosed {
		t.Errorf("ReplicaStats = %+v, want 2 anchors placed, pool order, closed breakers", replicas)
	}
}

// getMetrics fetches GET /metrics from a DistributionHandler server and
// returns the text exposition body.
func getMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestChaosGrayFailureContainedByDeadlines pairs a gray-failing replica
// (heartbeats fine, serves slower than the whole chunk budget) with a
// healthy one. Breakers never open — the health check lies — so only the
// deadline plane contains the failure: chunks routed to the slow replica
// ship degraded within budget-bounded latency, chunks routed to the
// healthy one ship enhanced, and the stream never stalls.
func TestChaosGrayFailureContainedByDeadlines(t *testing.T) {
	const (
		streamID = 55
		chunks   = 6
		budget   = 256 * time.Millisecond
	)
	provider, store := contentOracle(t, chunks*testGOP)
	base := runtime.NumGoroutine()

	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	gray := &faults.SlowEnhancer{Inner: local, Delay: 400 * time.Millisecond} // > budget: jobs expire
	pool, err := NewEnhancerPool([]Replica{
		StaticReplica("gray", gray),
		StaticReplica("healthy", local),
	}, chaosPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", pool, ServerConfig{
		AnchorFraction:     0.15,
		DefaultChunkBudget: budget,
		Logf:               silentLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	streamer, err := NewStreamer(srv.Addr(), streamID, testHello())
	if err != nil {
		t.Fatal(err)
	}
	streamer.Timeout = 10 * time.Second
	lr := lrFromHR(t, store.get(streamID))

	for i := 0; i < chunks; i++ {
		if seq, err := streamer.SendChunk(lr[i*testGOP : (i+1)*testGOP]); err != nil || seq != i {
			t.Fatalf("chunk %d: seq=%d err=%v", i, seq, err)
		}
		// Heartbeats sail through mid-run: the defining gray-failure trait.
		pool.Heartbeat()
	}

	for _, st := range pool.ReplicaStats() {
		if st.State != BreakerClosed {
			t.Errorf("replica %s breaker = %v; a gray failure must not trip breakers", st.ID, st.State)
		}
	}
	c := srv.Counters()
	requireAnchorLedger(t, c)
	if c.ChunksProcessed != chunks {
		t.Errorf("ChunksProcessed = %d, want %d", c.ChunksProcessed, chunks)
	}
	if c.AnchorsEnhanced == 0 {
		t.Error("healthy replica enhanced nothing")
	}
	if c.AnchorsExpired == 0 {
		t.Error("gray replica's jobs never expired; the deadline plane did not engage")
	}
	if pc := pool.Counters(); pc.DeadlineExpired == 0 {
		t.Error("pool never charged a deadline expiry against the gray replica")
	}
	p99 := srv.AdmitToStoreP99()
	if p99 <= 0 || p99 > 2*budget {
		t.Errorf("admit-to-store p99 = %v, want within (0, %v]", p99, 2*budget)
	}
	if gray.Calls() == 0 {
		t.Error("gray replica was never routed a dispatch")
	}

	if err := streamer.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	requireLedgerClosed(t, pool)
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, base)
}
