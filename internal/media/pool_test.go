package media

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// ctrlEnhancer is a scriptable in-process enhancer for pool unit tests.
type ctrlEnhancer struct {
	mu          sync.Mutex
	failWith    error
	wrongPacket bool
	registered  []uint32
	enhanced    int
	pings       int
}

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

func TestPoolRegistrationReplayAfterRedial(t *testing.T) {
	// The dial function hands out a fresh enhancer each time, simulating
	// a replica process restart: the pool must replay stream hellos on
	// the new connection before sending jobs.
	var dialed []*ctrlEnhancer
	var mu sync.Mutex
	dial := func() (AnchorEnhancer, error) {
		mu.Lock()
		defer mu.Unlock()
		e := &ctrlEnhancer{}
		dialed = append(dialed, e)
		return e, nil
	}
	cfg := quickPoolConfig()
	cfg.BreakerThreshold = 100 // keep the breaker out of this test
	p, err := NewEnhancerPool([]Replica{{ID: "restarting", Dial: dial}}, cfg)
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
	mu.Lock()
	first := dialed[0]
	mu.Unlock()

	// Simulate the process dying: a transport-level error makes the pool
	// discard the cached connection, and the in-call retry re-dials —
	// the job itself still succeeds on the fresh connection.
	first.setFail(ErrEnhancerUnavailable)
	if _, err := p.Enhance(5, wire.AnchorJob{Packet: 1}); err != nil {
		t.Fatalf("job across restart failed: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(dialed) < 2 {
		t.Fatalf("pool never re-dialed (dialed %d times)", len(dialed))
	}
	second := dialed[len(dialed)-1]
	second.mu.Lock()
	defer second.mu.Unlock()
	if len(second.registered) != 1 || second.registered[0] != 5 {
		t.Fatalf("fresh connection saw registrations %v, want [5]", second.registered)
	}
	if second.enhanced != 1 {
		t.Fatalf("fresh connection enhanced %d jobs, want 1", second.enhanced)
	}
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
