package media

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// ctrlEnhancer is a scriptable in-process enhancer for pool unit tests.
// A strict one answers ErrUnknownStream for a stream it was never
// registered, as a LocalEnhancer does; refuse names a stream whose
// registration it refuses, as a model provider with no content for it
// would (0: none).
type ctrlEnhancer struct {
	mu          sync.Mutex
	failWith    error
	wrongPacket bool
	strict      bool
	refuse      uint32
	refusals    int
	registered  []uint32
	enhanced    int
	pings       int
}

// errNoContent is a ctrlEnhancer's refusal of the stream it was told to
// refuse.
var errNoContent = errors.New("ctrl: no content")

func (c *ctrlEnhancer) setFail(err error) {
	c.mu.Lock()
	c.failWith = err
	c.mu.Unlock()
}

func (c *ctrlEnhancer) Enhance(streamID uint32, job wire.AnchorJob) (wire.AnchorResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failWith != nil {
		return wire.AnchorResult{}, c.failWith
	}
	if c.strict && !slices.Contains(c.registered, streamID) {
		return wire.AnchorResult{}, fmt.Errorf("ctrl: stream %d: %w", streamID, ErrUnknownStream)
	}
	c.enhanced++
	res := wire.AnchorResult{Packet: job.Packet, Encoded: []byte{1, 2, 3, 4}}
	if c.wrongPacket {
		res.Packet = job.Packet + 1
	}
	return res, nil
}

func (c *ctrlEnhancer) Register(streamID uint32, h wire.Hello) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failWith != nil {
		return c.failWith
	}
	if streamID == c.refuse {
		c.refusals++
		return fmt.Errorf("%w for stream %d", errNoContent, streamID)
	}
	c.registered = append(c.registered, streamID)
	return nil
}

func (c *ctrlEnhancer) Ping() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failWith != nil {
		return c.failWith
	}
	c.pings++
	return nil
}

func quickPoolConfig() PoolConfig {
	return PoolConfig{
		MaxRetries:       2,
		RetryBaseDelay:   time.Microsecond,
		RetryMaxDelay:    10 * time.Microsecond,
		BreakerThreshold: 3,
		BreakerCooldown:  5 * time.Millisecond,
		Seed:             42,
		Logf:             func(string, ...any) {},
	}
}

func TestPoolValidation(t *testing.T) {
	if _, err := NewEnhancerPool(nil, PoolConfig{}); err == nil {
		t.Error("empty replica list accepted")
	}
	if _, err := NewEnhancerPool([]Replica{{ID: "x"}}, PoolConfig{}); err == nil {
		t.Error("nil dial function accepted")
	}
}

func TestPoolFailoverToHealthyReplica(t *testing.T) {
	bad := &ctrlEnhancer{failWith: errors.New("boom")}
	good := &ctrlEnhancer{}
	p, err := NewEnhancerPool([]Replica{
		StaticReplica("bad", bad),
		StaticReplica("good", good),
	}, quickPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Every job must succeed regardless of which replica round-robin
	// offers first: failures fail over to the healthy replica.
	for i := 0; i < 8; i++ {
		res, err := p.Enhance(7, wire.AnchorJob{Packet: i})
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res.Packet != i {
			t.Fatalf("job %d: got packet %d", i, res.Packet)
		}
	}
	c := p.Counters()
	if c.Calls != 8 {
		t.Errorf("calls = %d, want 8", c.Calls)
	}
	if c.Failovers == 0 {
		t.Error("no failovers recorded despite a permanently failing replica")
	}
	if c.Unavailable != 0 {
		t.Errorf("unavailable = %d, want 0", c.Unavailable)
	}
}

func TestPoolBreakerOpensThenRecovers(t *testing.T) {
	e := &ctrlEnhancer{}
	cfg := quickPoolConfig()
	p, err := NewEnhancerPool([]Replica{StaticReplica("solo", e)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	e.setFail(errors.New("down"))
	// One pool call makes BreakerThreshold attempts (1 + MaxRetries) and
	// opens the breaker.
	if _, err := p.Enhance(1, wire.AnchorJob{Packet: 0}); !errors.Is(err, ErrEnhancerUnavailable) {
		t.Fatalf("want ErrEnhancerUnavailable, got %v", err)
	}
	if st := p.ReplicaStats()[0].State; st != BreakerOpen {
		t.Fatalf("breaker = %v, want open", st)
	}
	if c := p.Counters(); c.BreakerOpens == 0 || c.Unavailable != 1 {
		t.Fatalf("counters after outage: %+v", c)
	}

	// While open (inside the cooldown) calls are rejected without
	// touching the replica.
	before := func() int { e.mu.Lock(); defer e.mu.Unlock(); return e.enhanced }()
	if _, err := p.Enhance(1, wire.AnchorJob{Packet: 1}); !errors.Is(err, ErrEnhancerUnavailable) {
		t.Fatalf("open breaker admitted a call: %v", err)
	}
	if after := func() int { e.mu.Lock(); defer e.mu.Unlock(); return e.enhanced }(); after != before {
		t.Error("open breaker still forwarded a call")
	}

	// After the cooldown the half-open probe admits one call; the replica
	// has recovered, so the probe closes the breaker.
	e.setFail(nil)
	time.Sleep(2 * cfg.BreakerCooldown)
	if _, err := p.Enhance(1, wire.AnchorJob{Packet: 2}); err != nil {
		t.Fatalf("post-recovery call failed: %v", err)
	}
	if st := p.ReplicaStats()[0].State; st != BreakerClosed {
		t.Fatalf("breaker = %v, want closed after successful probe", st)
	}
	if c := p.Counters(); c.BreakerCloses == 0 {
		t.Fatalf("no breaker close recorded: %+v", c)
	}
}

func TestPoolHalfOpenProbeFailureReopens(t *testing.T) {
	e := &ctrlEnhancer{failWith: errors.New("still down")}
	cfg := quickPoolConfig()
	cfg.MaxRetries = 0 // one attempt per call: drive the machine by hand
	cfg.BreakerThreshold = 1
	p, err := NewEnhancerPool([]Replica{StaticReplica("solo", e)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if _, err := p.Enhance(1, wire.AnchorJob{}); err == nil {
		t.Fatal("failure not reported")
	}
	if st := p.ReplicaStats()[0].State; st != BreakerOpen {
		t.Fatalf("breaker = %v, want open", st)
	}
	time.Sleep(2 * cfg.BreakerCooldown)
	// Cooldown elapsed, probe admitted — but the replica is still down,
	// so the breaker reopens and the cooldown restarts.
	if _, err := p.Enhance(1, wire.AnchorJob{}); err == nil {
		t.Fatal("probe should have failed")
	}
	if st := p.ReplicaStats()[0].State; st != BreakerOpen {
		t.Fatalf("breaker = %v, want reopened", st)
	}
	if c := p.Counters(); c.BreakerOpens < 2 {
		t.Errorf("breaker opens = %d, want ≥ 2", c.BreakerOpens)
	}
}

func TestPoolBackoffDeterministicAndBounded(t *testing.T) {
	mk := func() *EnhancerPool {
		p, err := NewEnhancerPool([]Replica{StaticReplica("x", &ctrlEnhancer{})}, PoolConfig{
			RetryBaseDelay: 4 * time.Millisecond,
			RetryMaxDelay:  32 * time.Millisecond,
			Seed:           99,
			Logf:           func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := mk(), mk()
	defer a.Close()
	defer b.Close()
	for k := 0; k < 12; k++ {
		da, db := a.backoff(k), b.backoff(k)
		if da != db {
			t.Fatalf("retry %d: same seed diverged: %v vs %v", k, da, db)
		}
		if da > 32*time.Millisecond {
			t.Fatalf("retry %d: delay %v exceeds cap", k, da)
		}
		if da < 2*time.Millisecond {
			t.Fatalf("retry %d: delay %v below half the base", k, da)
		}
	}
}

// TestPoolRegistersOnDemandAfterRedial: a replica process that restarts
// comes back with no streams. The pool replays nothing on the new
// connection; the stream's next job comes back ErrUnknownStream, the
// replica receives exactly one hello, and the job lands there — no
// failover, breaker closed.
func TestPoolRegistersOnDemandAfterRedial(t *testing.T) {
	var dialed []*ctrlEnhancer
	var mu sync.Mutex
	dial := func() (AnchorEnhancer, error) {
		mu.Lock()
		defer mu.Unlock()
		e := &ctrlEnhancer{strict: true}
		dialed = append(dialed, e)
		return e, nil
	}
	p, err := NewEnhancerPool([]Replica{{ID: "restarting", Dial: dial}}, quickPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if err := p.Register(5, wire.Hello{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Enhance(5, wire.AnchorJob{Packet: 0}); err != nil {
		t.Fatal(err)
	}
	// The process dies: a heartbeat sees the transport fail and the pool
	// discards the connection, so the next job dials a fresh process.
	mu.Lock()
	dialed[0].setFail(ErrEnhancerUnavailable)
	mu.Unlock()
	p.Heartbeat()
	if _, err := p.Enhance(5, wire.AnchorJob{Packet: 1}); err != nil {
		t.Fatalf("job across restart failed: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(dialed) != 2 {
		t.Fatalf("pool dialed %d times, want 2", len(dialed))
	}
	second := dialed[1]
	second.mu.Lock()
	defer second.mu.Unlock()
	if !slices.Equal(second.registered, []uint32{5}) {
		t.Fatalf("fresh connection saw registrations %v, want [5]", second.registered)
	}
	if second.enhanced != 1 {
		t.Fatalf("fresh connection enhanced %d jobs, want 1", second.enhanced)
	}
	if c := p.Counters(); c.Failovers != 0 || c.Retries != 0 {
		t.Errorf("counters = %+v, want no failover and no retry", c)
	}
	if st := p.ReplicaStats()[0].State; st != BreakerClosed {
		t.Errorf("breaker = %v, want closed", st)
	}
}

// TestPoolRefusedHelloStaysWithItsStream: a stream whose hello every
// replica refuses fails its own anchors and nobody else's. The refusal
// is a fact about the stream, not about the replicas' health: it opens no
// breaker and spends no retry or failover. The pool remembers it, so the
// provider runs at most once per replica, not once per group.
func TestPoolRefusedHelloStaysWithItsStream(t *testing.T) {
	a, b := &ctrlEnhancer{strict: true, refuse: 99}, &ctrlEnhancer{strict: true, refuse: 99}
	p, err := NewEnhancerPool([]Replica{StaticReplica("a", a), StaticReplica("b", b)}, quickPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Register(1, wire.Hello{}); err != nil {
		t.Fatal(err)
	}
	_ = p.Register(99, wire.Hello{}) // refused by the replicas, not by the pool

	jobs := []wire.AnchorJob{{Packet: 0}, {Packet: 1}, {Packet: 2}, {Packet: 3}}
	landAll := func() {
		t.Helper()
		outs, err := p.EnhanceBatch(1, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range outs {
			if o.Err != nil {
				t.Fatalf("stream 1 anchor %d: %v", i, o.Err)
			}
		}
	}
	landAll()
	// Stream 99 as many times in a row as would open a breaker, were a
	// refusal a failure of the replica.
	for round := 0; round < quickPoolConfig().BreakerThreshold; round++ {
		outs, err := p.EnhanceBatch(99, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range outs {
			if !errors.Is(o.Err, errNoContent) || errors.Is(o.Err, ErrEnhancerUnavailable) {
				t.Fatalf("round %d: stream 99 anchor %d: %v, want the provider's refusal", round, i, o.Err)
			}
		}
	}
	landAll()
	for _, st := range p.ReplicaStats() {
		if st.State != BreakerClosed || st.Anchors == 0 {
			t.Errorf("replica %s: state %v after %d anchors, want closed and used", st.ID, st.State, st.Anchors)
		}
	}
	refusals := 0
	for _, e := range []*ctrlEnhancer{a, b} {
		e.mu.Lock()
		if e.enhanced == 0 {
			t.Error("a replica landed none of stream 1's anchors")
		}
		if e.refusals > 1 {
			t.Errorf("a replica's provider refused stream 99 %d times, want at most once", e.refusals)
		}
		refusals += e.refusals
		e.mu.Unlock()
	}
	if refusals == 0 {
		t.Error("no provider was asked for stream 99")
	}
	if c := p.Counters(); c.BreakerOpens != 0 || c.Retries != 0 || c.Failovers != 0 || c.Unavailable != 0 {
		t.Errorf("counters = %+v, want no breaker open, retry, failover or unavailable", c)
	}
	// A new hello replaces the record, refusal and all: the providers are
	// asked again.
	_ = p.Register(99, wire.Hello{})
	if _, err := p.Enhance(99, wire.AnchorJob{}); !errors.Is(err, errNoContent) {
		t.Fatalf("stream 99 after a new hello: %v, want the provider's refusal", err)
	}
	a.mu.Lock()
	b.mu.Lock()
	if a.refusals+b.refusals != refusals+1 {
		t.Errorf("a new hello asked the providers %d times, want once", a.refusals+b.refusals-refusals)
	}
	b.mu.Unlock()
	a.mu.Unlock()
}

// TestPoolRefusalStandsForEveryReplica pins the pool's premise that its
// replicas share one model provider: once one replica refused a stream,
// no replica is asked about it again, not even one that registered it,
// until a new hello.
func TestPoolRefusalStandsForEveryReplica(t *testing.T) {
	a, b := &ctrlEnhancer{strict: true, refuse: 99}, &ctrlEnhancer{strict: true, refuse: 1000}
	p, err := NewEnhancerPool([]Replica{StaticReplica("a", a), StaticReplica("b", b)}, quickPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	_ = p.Register(99, wire.Hello{})
	jobs := []wire.AnchorJob{{Packet: 0}, {Packet: 1}, {Packet: 2}, {Packet: 3}}
	// The first batch reaches both replicas: a refuses the stream, b
	// registers it and lands its group.
	if _, err := p.EnhanceBatch(99, jobs); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	landed := b.enhanced
	b.mu.Unlock()
	if a.refusals != 1 || landed == 0 {
		t.Fatalf("first batch: a refused %d times, b landed %d anchors; want 1 and some", a.refusals, landed)
	}
	outs, err := p.EnhanceBatch(99, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if !errors.Is(o.Err, errNoContent) {
			t.Errorf("second batch anchor %d: %v, want a's refusal", i, o.Err)
		}
	}
	a.mu.Lock()
	b.mu.Lock()
	if a.refusals != 1 || b.enhanced != landed {
		t.Errorf("second batch asked a replica: a refused %d times, b landed %d more", a.refusals, b.enhanced-landed)
	}
	b.mu.Unlock()
	a.mu.Unlock()
	if c := p.Counters(); c.BreakerOpens != 0 || c.Retries != 0 || c.Failovers != 0 || c.Unavailable != 0 {
		t.Errorf("counters = %+v, want no breaker open, retry, failover or unavailable", c)
	}
}

// TestPoolRegistrationScales: the pool's per-stream state is a recorded
// hello and nothing per replica. A replica that reconnects after 1000
// streams registered hears no hello until a job of one reaches it, and a
// dispatch costs the same allocations with 1000 streams as with 4.
func TestPoolRegistrationScales(t *testing.T) {
	const streams = 1000
	t.Run("reconnect", func(t *testing.T) {
		var dialed []*ctrlEnhancer
		dial := func() (AnchorEnhancer, error) {
			e := &ctrlEnhancer{strict: true}
			dialed = append(dialed, e)
			return e, nil
		}
		p, err := NewEnhancerPool([]Replica{{ID: "r", Dial: dial}}, quickPoolConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		for id := uint32(1); id <= streams; id++ {
			if err := p.Register(id, wire.Hello{}); err != nil {
				t.Fatal(err)
			}
		}
		p.Heartbeat() // connect
		dialed[0].setFail(ErrEnhancerUnavailable)
		p.Heartbeat() // the connection fails and is dropped
		p.Heartbeat() // reconnect
		if len(dialed) != 2 {
			t.Fatalf("pool dialed %d times, want 2", len(dialed))
		}
		fresh := dialed[1]
		if n := len(fresh.registered); n != 0 {
			t.Fatalf("reconnected replica heard %d hellos before any job", n)
		}
		if _, err := p.Enhance(500, wire.AnchorJob{}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(fresh.registered, []uint32{500}) {
			t.Fatalf("replica heard hellos %v, want [500]", fresh.registered)
		}
	})
	t.Run("dispatch-allocs", func(t *testing.T) {
		if raceEnabled {
			t.Skip("allocation counts are not meaningful under -race")
		}
		dispatchAllocs := func(streams uint32) float64 {
			p, err := NewEnhancerPool([]Replica{StaticReplica("a", &ctrlEnhancer{}), StaticReplica("b", &ctrlEnhancer{})}, quickPoolConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			for id := uint32(1); id <= streams; id++ {
				if err := p.Register(id, wire.Hello{}); err != nil {
					t.Fatal(err)
				}
			}
			jobs := []wire.AnchorJob{{Packet: 0}, {Packet: 1}}
			return testing.AllocsPerRun(200, func() {
				if _, err := p.EnhanceBatch(1, jobs); err != nil {
					t.Fatal(err)
				}
			})
		}
		few, many := dispatchAllocs(4), dispatchAllocs(streams)
		t.Logf("allocations per 2-anchor dispatch: %.1f with 4 streams, %.1f with %d", few, many, streams)
		if many > few {
			t.Errorf("a dispatch allocates %.1f objects with %d streams registered, %.1f with 4", many, streams, few)
		}
	})
}

func TestPoolRejectsMismatchedResult(t *testing.T) {
	e := &ctrlEnhancer{wrongPacket: true}
	cfg := quickPoolConfig()
	p, err := NewEnhancerPool([]Replica{StaticReplica("liar", e)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Enhance(1, wire.AnchorJob{Packet: 3}); !errors.Is(err, ErrEnhancerUnavailable) {
		t.Fatalf("mismatched result not rejected: %v", err)
	}
}

func TestPoolHeartbeatRecoversOpenBreaker(t *testing.T) {
	e := &ctrlEnhancer{failWith: errors.New("down")}
	cfg := quickPoolConfig()
	cfg.MaxRetries = 0
	cfg.BreakerThreshold = 1
	p, err := NewEnhancerPool([]Replica{StaticReplica("solo", e)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if _, err := p.Enhance(1, wire.AnchorJob{}); err == nil {
		t.Fatal("failure not reported")
	}
	if st := p.ReplicaStats()[0].State; st != BreakerOpen {
		t.Fatalf("breaker = %v, want open", st)
	}
	e.setFail(nil)
	time.Sleep(2 * cfg.BreakerCooldown)
	// A health sweep (not live traffic) closes the breaker.
	p.Heartbeat()
	if st := p.ReplicaStats()[0].State; st != BreakerClosed {
		t.Fatalf("breaker = %v, want closed after heartbeat", st)
	}
	c := p.Counters()
	if c.Heartbeats == 0 || c.BreakerCloses == 0 {
		t.Fatalf("heartbeat not recorded: %+v", c)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pings == 0 {
		t.Error("heartbeat never pinged the replica")
	}
}
