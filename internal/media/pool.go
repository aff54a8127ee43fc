package media

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// maxPoolReplicas bounds a pool so any set of its replicas is one uint64
// bitmask: placement and the retry ladder's tried-set allocate nothing.
const maxPoolReplicas = 64

// BreakerState is a per-replica circuit-breaker state.
type BreakerState int32

const (
	// BreakerClosed admits every call.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects calls until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits a single probe call; its outcome closes or
	// reopens the breaker.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int32(s))
	}
}

// PoolConfig tunes the fault-tolerance envelope of an EnhancerPool.
type PoolConfig struct {
	// MaxRetries is the number of extra attempts per anchor job after
	// the first failure (each preferring a replica not yet tried).
	// Default 2.
	MaxRetries int
	// RetryBaseDelay seeds the exponential backoff between attempts;
	// the delay for attempt k is base·2ᵏ halved-jittered, capped at
	// RetryMaxDelay. Default 5ms, capped at 250ms.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// replica's breaker. Default 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects calls before
	// admitting a half-open probe. Default 500ms.
	BreakerCooldown time.Duration
	// HeartbeatInterval enables background liveness probes: open
	// breakers past their cooldown get probed (and closed on success)
	// without waiting for traffic, and silently dead replicas are
	// detected early. Zero disables the loop; call-path probing still
	// recovers replicas.
	HeartbeatInterval time.Duration
	// Seed fixes the retry-jitter schedule for deterministic tests.
	Seed int64
	// Logf receives diagnostics; nil uses the standard logger.
	Logf func(string, ...any)
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 5 * time.Millisecond
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = 250 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 500 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Replica is one enhancer endpoint of a pool.
type Replica struct {
	// ID names the replica in logs and state reports.
	ID string
	// Dial (re)connects to the replica. It is invoked lazily on first
	// use and again after the pool discards a broken enhancer.
	Dial func() (AnchorEnhancer, error)
}

// StaticReplica wraps an in-process enhancer (tests, single-node pools).
func StaticReplica(id string, e AnchorEnhancer) Replica {
	return Replica{ID: id, Dial: func() (AnchorEnhancer, error) { return e, nil }}
}

// TCPReplica dials a remote EnhancerServer with per-call deadlines.
func TCPReplica(addr string, dialTimeout, callTimeout time.Duration) Replica {
	return Replica{ID: addr, Dial: func() (AnchorEnhancer, error) {
		return DialEnhancerTimeout(addr, dialTimeout, callTimeout)
	}}
}

// PoolCounters is a snapshot of a pool's fault-handling activity.
type PoolCounters struct {
	Calls           uint64
	Retries         uint64
	Failovers       uint64
	BreakerOpens    uint64
	BreakerCloses   uint64
	Heartbeats      uint64
	Unavailable     uint64
	DeadlineExpired uint64
}

type poolCounters struct {
	calls, retries, failovers   atomic.Uint64
	breakerOpens, breakerCloses atomic.Uint64
	heartbeats, unavailable     atomic.Uint64
	deadlineExpired             atomic.Uint64
}

// EnhancerPool is an AnchorEnhancer over N replicas with anchor-level
// least-outstanding-work placement (placeJobs), bounded retry
// (exponential backoff + seeded jitter), per-replica circuit breakers
// (closed → open → half-open), heartbeat health checks, automatic
// reconnect, and failover of failed anchor jobs to healthy replicas.
// When every replica is exhausted it returns ErrEnhancerUnavailable and
// the server degrades the chunk rather than failing it.
type EnhancerPool struct {
	cfg      PoolConfig
	replicas []*poolReplica

	jitterMu sync.Mutex
	// jitter is guarded by jitterMu.
	jitter *rand.Rand

	helloMu sync.Mutex
	// streams, every registered stream's record, is guarded by helloMu.
	streams map[uint32]*poolStream

	// rr is the lock-free round-robin cursor; it only breaks placement
	// ties between equally loaded replicas.
	rr       atomic.Uint64
	counters poolCounters

	closed  chan struct{}
	closeWG sync.WaitGroup
	once    sync.Once
}

// NewEnhancerPool builds a pool over the given replicas.
func NewEnhancerPool(replicas []Replica, cfg PoolConfig) (*EnhancerPool, error) {
	if len(replicas) == 0 {
		return nil, errors.New("media: pool needs at least one replica")
	}
	if len(replicas) > maxPoolReplicas {
		return nil, fmt.Errorf("media: pool of %d replicas exceeds the limit of %d", len(replicas), maxPoolReplicas)
	}
	p := &EnhancerPool{
		cfg:     cfg.withDefaults(),
		jitter:  rand.New(rand.NewSource(cfg.Seed)),
		streams: make(map[uint32]*poolStream),
		closed:  make(chan struct{}),
	}
	for i, r := range replicas {
		if r.Dial == nil {
			return nil, fmt.Errorf("media: replica %d has no dial function", i)
		}
		id := r.ID
		if id == "" {
			id = fmt.Sprintf("replica-%d", i)
		}
		p.replicas = append(p.replicas, &poolReplica{id: id, index: i, dialFn: r.Dial, pool: p})
	}
	if p.cfg.HeartbeatInterval > 0 {
		p.closeWG.Add(1)
		go p.heartbeatLoop()
	}
	return p, nil
}

// Close stops the heartbeat loop and closes every connected replica.
func (p *EnhancerPool) Close() error {
	p.once.Do(func() { close(p.closed) })
	p.closeWG.Wait()
	for _, r := range p.replicas {
		// Detach under the replica lock, close outside it: a remote
		// enhancer's Close takes its own locks and writes a goodbye
		// frame, and poolReplica.mu must not be held across either.
		r.mu.Lock()
		enh := r.enh
		r.enh = nil
		r.mu.Unlock()
		if c, ok := enh.(io.Closer); ok {
			_ = c.Close()
		}
	}
	return nil
}

// Size returns the number of replicas in the pool (healthy or not).
func (p *EnhancerPool) Size() int { return len(p.replicas) }

// Counters returns a snapshot of the pool's activity.
func (p *EnhancerPool) Counters() PoolCounters {
	return PoolCounters{
		Calls:           p.counters.calls.Load(),
		Retries:         p.counters.retries.Load(),
		Failovers:       p.counters.failovers.Load(),
		BreakerOpens:    p.counters.breakerOpens.Load(),
		BreakerCloses:   p.counters.breakerCloses.Load(),
		Heartbeats:      p.counters.heartbeats.Load(),
		Unavailable:     p.counters.unavailable.Load(),
		DeadlineExpired: p.counters.deadlineExpired.Load(),
	}
}

// ReplicaStat is one replica's share of the pool's work. Dispatches
// counts round trips sent to it (a batch is one), Anchors the jobs they
// carried. Outstanding is the placement ledger: modelled work (LR pixels
// of anchors) dispatched and not yet returned, 0 on every replica when
// the pool is quiescent.
type ReplicaStat struct {
	ID          string
	State       BreakerState
	Dispatches  uint64
	Anchors     uint64
	Outstanding int64
}

// ReplicaStats reports every replica's stats, in pool order.
func (p *EnhancerPool) ReplicaStats() []ReplicaStat {
	out := make([]ReplicaStat, len(p.replicas))
	for i, r := range p.replicas {
		r.mu.Lock()
		state := r.state
		r.mu.Unlock()
		out[i] = ReplicaStat{
			ID:          r.id,
			State:       state,
			Dispatches:  r.dispatches.Load(),
			Anchors:     r.anchors.Load(),
			Outstanding: r.outstanding.Load(),
		}
	}
	return out
}

// poolStream is the pool's record of one stream: its hello and, once a
// replica refused to register it, that refusal. Replicas share one model
// provider, so a refusal is the stream's answer on every replica: its
// jobs fail with it, asking none, until a new hello replaces the record.
type poolStream struct {
	hello   wire.Hello
	refusal error // guarded by helloMu
}

// Register records the stream's hello. No replica hears it here: each
// learns the stream from its first job of it (enhanceGroup), so a
// replica that connects, reconnects or restarts needs no replay.
func (p *EnhancerPool) Register(streamID uint32, h wire.Hello) error {
	p.helloMu.Lock()
	p.streams[streamID] = &poolStream{hello: h}
	p.helloMu.Unlock()
	return nil
}

// stream returns the stream's record, nil if it has none, and its refusal.
func (p *EnhancerPool) stream(streamID uint32) (*poolStream, error) {
	p.helloMu.Lock()
	defer p.helloMu.Unlock()
	if ps := p.streams[streamID]; ps != nil {
		return ps, ps.refusal
	}
	return nil, nil
}

// Enhance implements AnchorEnhancer with retry, failover, and breaker
// bookkeeping. Attempts prefer replicas not yet tried for this job.
//
// A job whose stream a replica cannot be taught (streamFault), now or
// before (poolStream), fails at once: every replica would answer the same.
//
// A job without a deadline gets the legacy fixed ladder: MaxRetries+1
// attempts with full jittered backoff between them. A job with a
// deadline is instead capped by its remaining budget — attempts keep
// going while budget remains (even past MaxRetries, since a healthy
// replica may still land the anchor in time), every backoff sleep is
// truncated to the remaining budget, and the ladder exits with a typed
// ErrDeadlineExceeded the moment the budget runs out. Sleeping past the
// chunk's deadline to honor a fixed attempt count would only delay the
// degraded chunk it ships regardless.
func (p *EnhancerPool) Enhance(streamID uint32, job wire.AnchorJob) (wire.AnchorResult, error) {
	return p.enhance(streamID, job, 0)
}

// enhance is the per-anchor ladder. failed is the set of replicas that
// already failed this job (a batch group that did not land it): they
// count as tried, and the first attempt elsewhere is a failover.
func (p *EnhancerPool) enhance(streamID uint32, job wire.AnchorJob, failed uint64) (wire.AnchorResult, error) {
	p.counters.calls.Add(1)
	deadline := job.Deadline
	if expired(deadline, time.Now()) {
		p.counters.deadlineExpired.Add(1)
		return wire.AnchorResult{}, fmt.Errorf("media: anchor %d of stream %d: budget spent before first attempt: %w",
			job.Packet, streamID, ErrDeadlineExceeded)
	}
	ps, refusal := p.stream(streamID)
	if refusal != nil {
		return wire.AnchorResult{}, fmt.Errorf("media: anchor %d of stream %d: %w", job.Packet, streamID, refusal)
	}
	attempts := p.cfg.MaxRetries + 1
	tried := failed
	jobs := [1]wire.AnchorJob{job}
	var assign [1]int8
	var lastErr error
	attempt := 0
	for {
		if attempt > 0 {
			if deadline.IsZero() && attempt >= attempts {
				break
			}
			d := p.backoff(attempt - 1)
			if !deadline.IsZero() {
				remaining := time.Until(deadline)
				if remaining <= 0 {
					break
				}
				if d > remaining {
					d = remaining
				}
			}
			p.counters.retries.Add(1)
			time.Sleep(d)
			if expired(deadline, time.Now()) {
				break
			}
		}
		placed := p.place(jobs[:], tried, assign[:])
		if placed == 0 {
			// Every replica tried or breaker-rejected this round; start a
			// fresh round (a cooldown may have elapsed by the next try).
			tried = 0
			placed = p.place(jobs[:], 0, assign[:])
		}
		if placed == 0 {
			lastErr = fmt.Errorf("all %d breakers open", len(p.replicas))
			attempt++
			continue
		}
		rep := p.replicas[assign[0]]
		tried |= placed
		if attempt > 0 || failed != 0 {
			p.counters.failovers.Add(1)
		}
		outs, err := rep.enhanceBatch(ps, streamID, jobs[:])
		rep.release(job)
		if err == nil {
			err = outs[0].Err
		}
		if err == nil {
			return outs[0].Res, nil
		}
		if streamFault(err) {
			return wire.AnchorResult{}, fmt.Errorf("media: anchor %d of stream %d: %w", job.Packet, streamID, err)
		}
		lastErr = err
		p.cfg.Logf("media: pool replica %s anchor %d stream %d: %v", rep.id, job.Packet, streamID, err)
		attempt++
	}
	if !deadline.IsZero() {
		p.counters.deadlineExpired.Add(1)
		return wire.AnchorResult{}, fmt.Errorf("media: anchor %d of stream %d: budget spent after %d attempts (%v): %w",
			job.Packet, streamID, attempt, lastErr, ErrDeadlineExceeded)
	}
	p.counters.unavailable.Add(1)
	return wire.AnchorResult{}, fmt.Errorf("media: anchor %d of stream %d failed after %d attempts (%v): %w",
		job.Packet, streamID, attempts, lastErr, ErrEnhancerUnavailable)
}

// EnhanceBatch implements BatchAnchorEnhancer with anchor-level
// placement: the jobs are spread over the admissible replicas by least
// outstanding work, each replica's group is one round trip, the groups
// run concurrently, and any anchor its group did not land falls over to
// the per-anchor ladder, starting away from the replica that failed it.
// A mid-batch fault therefore degrades only the anchors it actually
// touched. Outcomes land by job index, so neither placement nor
// completion order shows in the result. A batch of one goes straight to
// the ladder, as Enhance does.
func (p *EnhancerPool) EnhanceBatch(streamID uint32, jobs []wire.AnchorJob) ([]AnchorOutcome, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	outs := make([]AnchorOutcome, len(jobs))
	if len(jobs) == 1 {
		outs[0].Res, outs[0].Err = p.Enhance(streamID, jobs[0])
		return outs, nil
	}
	// assign[i] is the replica job i was placed on, or -1. A placed job
	// that did not land carries its group's error in outs[i] until the
	// rescue below overwrites it.
	assign := make([]int8, len(jobs))
	for i := range assign {
		assign[i] = -1
	}
	ps, refusal := p.stream(streamID)
	var wg sync.WaitGroup
	// Skip the round trips when the whole batch has already expired, or its
	// stream was refused; the per-anchor rescue answers each job with that
	// (and charges the counter) without any wire traffic.
	if refusal == nil && !expired(minJobDeadline(jobs), time.Now()) {
		groups := p.place(jobs, 0, assign)
		// The first group runs here, the rest beside it.
		first := bits.TrailingZeros64(groups)
		for r := first + 1; r < len(p.replicas); r++ {
			if groups>>r&1 != 0 {
				wg.Add(1)
				go func(rep *poolReplica) {
					defer wg.Done()
					p.runGroup(rep, ps, streamID, jobs, assign, outs)
				}(p.replicas[r])
			}
		}
		if groups != 0 {
			p.runGroup(p.replicas[first], ps, streamID, jobs, assign, outs)
		}
		wg.Wait()
	}
	// Per-anchor rescue: counters are charged by the ladder itself, so the
	// groups above stay invisible to the per-anchor call ledger. Rescued
	// anchors fan out concurrently, as per-anchor dispatch would.
	for i := range jobs {
		if assign[i] >= 0 && (outs[i].Err == nil || streamFault(outs[i].Err)) {
			continue
		}
		var failed uint64
		if assign[i] >= 0 {
			failed = 1 << assign[i]
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i].Res, outs[i].Err = p.enhance(streamID, jobs[i], failed)
		}(i)
	}
	wg.Wait()
	return outs, nil
}

// runGroup dispatches the jobs placed on rep (assign[i] == rep.index) as
// one round trip and releases their ledger charge. Outcomes go to outs by
// job index; a group-level failure is every member's outcome.
func (p *EnhancerPool) runGroup(rep *poolReplica, ps *poolStream, streamID uint32, jobs []wire.AnchorJob, assign []int8, outs []AnchorOutcome) {
	lo, hi, n := 0, 0, 0
	for i, a := range assign {
		if int(a) == rep.index {
			if n == 0 {
				lo = i
			}
			hi, n = i+1, n+1
		}
	}
	// A run of neighbours (every group of one, and a call that landed whole
	// on one replica) goes out as it lies in jobs; only a group placement
	// interleaved with another is gathered.
	group := jobs[lo:hi]
	if hi-lo != n {
		group = make([]wire.AnchorJob, 0, n)
		for i, a := range assign[:hi] {
			if int(a) == rep.index {
				group = append(group, jobs[i])
			}
		}
	}
	bouts, err := rep.enhanceBatch(ps, streamID, group)
	if err != nil {
		p.cfg.Logf("media: pool replica %s group of %d stream %d: %v", rep.id, n, streamID, err)
	}
	k := 0
	for i, a := range assign[:hi] {
		if int(a) != rep.index {
			continue
		}
		rep.release(jobs[i])
		if err != nil {
			outs[i].Err = err
		} else {
			outs[i] = bouts[k]
		}
		k++
	}
}

// jobCost is the modelled work of one anchor: its LR frame area, so
// streams of unequal resolution balance by pixels; between equal streams
// it is a count.
func jobCost(job wire.AnchorJob) int64 {
	if job.Frame == nil {
		return 1
	}
	return int64(job.Frame.W) * int64(job.Frame.H)
}

// placeJobs is the pool's placement rule: each job, in order, goes to the
// replica with the least load — outstanding work plus what this call has
// already given it — among those outside skip that admit; equal loads go
// to the replica nearest the round-robin cursor start. admit is asked at
// most once per replica, and only when a job is about to land there, so
// an admitted replica (a half-open breaker's one probe) always receives
// work. assign[i] becomes job i's replica, or -1 when none admits; load
// is updated in place; the set of replicas given work is returned.
func placeJobs(load []int64, skip uint64, start int, jobs []wire.AnchorJob, assign []int8, admit func(r int) bool) (placed uint64) {
	for i, job := range jobs {
		assign[i] = -1
		for assign[i] < 0 {
			best := -1
			for k := range load {
				r := (start + k) % len(load)
				if skip>>r&1 == 0 && (best < 0 || load[r] < load[best]) {
					best = r
				}
			}
			if best < 0 {
				break
			}
			if placed>>best&1 == 0 && !admit(best) {
				skip |= 1 << best
				continue
			}
			placed |= 1 << best
			assign[i] = int8(best)
			load[best] += jobCost(job)
		}
	}
	return placed
}

// place is the one point where Enhance, EnhanceBatch and the rescue
// ladder choose replicas: placeJobs over the live ledgers and breakers.
// Each placed job is charged to its replica's ledger; the caller
// dispatches every one and releases it when the call returns.
func (p *EnhancerPool) place(jobs []wire.AnchorJob, skip uint64, assign []int8) (placed uint64) {
	var load [maxPoolReplicas]int64
	for i, rep := range p.replicas {
		load[i] = rep.outstanding.Load()
	}
	start := int((p.rr.Add(1) - 1) % uint64(len(p.replicas)))
	now := time.Now()
	placed = placeJobs(load[:len(p.replicas)], skip, start, jobs, assign, func(r int) bool {
		return p.replicas[r].admit(now)
	})
	for i, a := range assign {
		if a >= 0 {
			p.replicas[a].charge(jobs[i])
		}
	}
	return placed
}

// backoff returns the jittered exponential delay for retry k.
func (p *EnhancerPool) backoff(k int) time.Duration {
	d := p.cfg.RetryBaseDelay << uint(k)
	if d > p.cfg.RetryMaxDelay || d <= 0 {
		d = p.cfg.RetryMaxDelay
	}
	p.jitterMu.Lock()
	j := time.Duration(p.jitter.Int63n(int64(d)/2 + 1))
	p.jitterMu.Unlock()
	return d/2 + j
}

func (p *EnhancerPool) heartbeatLoop() {
	defer p.closeWG.Done()
	t := time.NewTicker(p.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-p.closed:
			return
		case <-t.C:
			p.Heartbeat()
		}
	}
}

// Heartbeat probes every admissible replica once: open breakers past
// their cooldown get a half-open probe (closing them on success without
// waiting for traffic), and dead-but-closed replicas accumulate failures
// toward opening. It is exported so tests and operators can force a
// health sweep.
func (p *EnhancerPool) Heartbeat() {
	for _, rep := range p.replicas {
		now := time.Now()
		if !rep.admit(now) {
			continue
		}
		p.counters.heartbeats.Add(1)
		err := rep.ping(now)
		if err != nil {
			p.cfg.Logf("media: pool replica %s heartbeat: %v", rep.id, err)
		}
	}
}

// poolReplica is one replica plus its breaker state machine.
type poolReplica struct {
	id     string
	index  int // position in pool.replicas, the replica's bit in a set
	dialFn func() (AnchorEnhancer, error)
	pool   *EnhancerPool

	// outstanding is the placement ledger (see ReplicaStat.Outstanding):
	// charge before a job is dispatched, release when its call returns.
	outstanding atomic.Int64
	dispatches  atomic.Uint64
	anchors     atomic.Uint64

	mu sync.Mutex
	// The connection and breaker state, guarded by mu.
	enh      AnchorEnhancer
	state    BreakerState
	fails    int
	openedAt time.Time
	probing  bool
}

func (r *poolReplica) charge(job wire.AnchorJob) {
	r.outstanding.Add(jobCost(job))
	r.anchors.Add(1)
}

func (r *poolReplica) release(job wire.AnchorJob) { r.outstanding.Add(-jobCost(job)) }

// admit runs the breaker's admission decision for one call at time now:
// closed admits, open admits one probe after the cooldown (moving to
// half-open), half-open rejects while its probe is in flight.
func (r *poolReplica) admit(now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Sub(r.openedAt) < r.pool.cfg.BreakerCooldown {
			return false
		}
		r.state = BreakerHalfOpen
		r.probing = true
		return true
	case BreakerHalfOpen:
		if r.probing {
			return false
		}
		r.probing = true
		return true
	}
	return false
}

// connectLocked dials the replica if needed. Callers hold r.mu.
func (r *poolReplica) connectLocked() error {
	if r.enh != nil {
		return nil
	}
	enh, err := r.dialFn()
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	r.enh = enh
	return nil
}

// enhanceBatch runs one admitted group on this replica — the one place
// the pool hands anchors to an enhancer — handling connect and breaker
// reporting; enhanceGroup teaches the replica the stream from ps, the
// pool's record of it (nil: none), which keeps a refusal. Per-anchor
// failures ride back inside the outcomes; the error return voids the
// whole attempt (dial, transport or protocol failure). The breaker hears
// a failure when the attempt is voided or when none of its anchors was
// answered (the first anchor's error then stands for the group); a group
// that landed any anchor, or reported its stream unknown or refused
// (streamFault), is a healthy round trip.
func (r *poolReplica) enhanceBatch(ps *poolStream, streamID uint32, jobs []wire.AnchorJob) ([]AnchorOutcome, error) {
	var h *wire.Hello
	if ps != nil {
		h = &ps.hello
	}
	r.mu.Lock()
	err := r.connectLocked()
	enh := r.enh
	r.mu.Unlock()
	var outs []AnchorOutcome
	if err == nil {
		r.dispatches.Add(1)
		outs, err = enhanceGroup(enh, streamID, h, jobs)
	}
	fail := err
	if err == nil {
		answered := false
		for i := range outs {
			if outs[i].Err == nil && outs[i].Res.Packet != jobs[i].Packet {
				outs[i] = AnchorOutcome{Err: fmt.Errorf("replica %s returned anchor %d for job %d",
					r.id, outs[i].Res.Packet, jobs[i].Packet)}
			}
			answered = answered || outs[i].Err == nil || streamFault(outs[i].Err)
			if errors.Is(outs[i].Err, errStreamRefused) {
				r.pool.helloMu.Lock()
				ps.refusal = outs[i].Err
				r.pool.helloMu.Unlock()
			}
		}
		if !answered {
			fail = outs[0].Err
		}
	}
	r.report(fail == nil, time.Now())
	r.dropIfUnavailable(fail)
	if err != nil {
		return nil, fmt.Errorf("replica %s: %w", r.id, err)
	}
	return outs, nil
}

// dropIfUnavailable discards the cached enhancer after a transport-level
// failure (any other err, nil included, is a no-op) so the next admitted
// call re-dials.
func (r *poolReplica) dropIfUnavailable(err error) {
	if !errors.Is(err, ErrEnhancerUnavailable) {
		return
	}
	// Detach under the replica lock, close outside it (same discipline
	// as EnhancerPool.Close).
	r.mu.Lock()
	enh := r.enh
	r.enh = nil
	r.mu.Unlock()
	if c, ok := enh.(io.Closer); ok {
		_ = c.Close()
	}
}

// ping probes the replica (connect + optional Ping) and reports the
// outcome to the breaker.
func (r *poolReplica) ping(now time.Time) error {
	r.mu.Lock()
	err := r.connectLocked()
	enh := r.enh
	r.mu.Unlock()
	if pg, ok := enh.(pinger); ok && err == nil {
		err = pg.Ping()
	}
	r.report(err == nil, time.Now())
	r.dropIfUnavailable(err)
	return err
}

// report feeds one call outcome into the breaker state machine.
func (r *poolReplica) report(ok bool, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.probing = false
	if ok {
		if r.state != BreakerClosed {
			r.state = BreakerClosed
			r.pool.counters.breakerCloses.Add(1)
			r.pool.cfg.Logf("media: pool replica %s: breaker closed", r.id)
		}
		r.fails = 0
		return
	}
	r.fails++
	switch r.state {
	case BreakerHalfOpen:
		// The probe failed: reopen and restart the cooldown.
		r.state = BreakerOpen
		r.openedAt = now
		r.pool.counters.breakerOpens.Add(1)
	case BreakerClosed:
		if r.fails >= r.pool.cfg.BreakerThreshold {
			r.state = BreakerOpen
			r.openedAt = now
			r.pool.counters.breakerOpens.Add(1)
			r.pool.cfg.Logf("media: pool replica %s: breaker opened after %d consecutive failures", r.id, r.fails)
		}
	}
}

var _ BatchAnchorEnhancer = (*EnhancerPool)(nil)
var _ registrar = (*EnhancerPool)(nil)
