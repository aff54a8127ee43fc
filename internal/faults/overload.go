package faults

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// SlowEnhancer models a gray failure: the replica answers health checks
// promptly but serves jobs slowly (an overloaded GPU, a throttled VM, a
// congested link). Heartbeats sail through, so breakers stay closed and
// the pool keeps routing work to it — exactly the failure mode deadline
// propagation has to contain, since nothing but the deadline will ever
// take the replica out of rotation.
type SlowEnhancer struct {
	Inner Enhancer
	// Delay is the added service latency per dispatch. A batch pays
	// Delay once per member (PerJob true) or once per dispatch (false),
	// modeling serial vs. amortized slowness.
	Delay  time.Duration
	PerJob bool
	// Gate, when non-nil, toggles the slowness: a dead gate is fast
	// (recovered), a live one slow. This inversion lets tests flip a
	// replica between gray and healthy without rebuilding the pool.
	Gate *Gate

	// calls counts delayed dispatches, for test assertions.
	calls atomic.Uint64
}

// Calls reports how many dispatches were served slow.
func (s *SlowEnhancer) Calls() uint64 { return s.calls.Load() }

func (s *SlowEnhancer) slow() bool { return s.Gate == nil || !s.Gate.Dead() }

// Enhance serves one job after the configured delay.
func (s *SlowEnhancer) Enhance(streamID uint32, job wire.AnchorJob) (wire.AnchorResult, error) {
	if s.slow() {
		s.calls.Add(1)
		time.Sleep(s.Delay)
	}
	return s.Inner.Enhance(streamID, job)
}

// EnhanceBatch serves a batch after the configured delay (scaled by the
// batch size when PerJob is set).
func (s *SlowEnhancer) EnhanceBatch(streamID uint32, jobs []wire.AnchorJob) ([]wire.AnchorOutcome, error) {
	if s.slow() {
		s.calls.Add(1)
		d := s.Delay
		if s.PerJob {
			d *= time.Duration(len(jobs))
		}
		time.Sleep(d)
	}
	outs := make([]wire.AnchorOutcome, len(jobs))
	for i, job := range jobs {
		outs[i].Res, outs[i].Err = s.Inner.Enhance(streamID, job)
	}
	return outs, nil
}

// Register forwards per-stream registration; it is never slowed (the
// gray failure is in the data path, not the control path).
func (s *SlowEnhancer) Register(streamID uint32, h wire.Hello) error {
	type registrar interface {
		Register(uint32, wire.Hello) error
	}
	if r, ok := s.Inner.(registrar); ok {
		return r.Register(streamID, h)
	}
	return nil
}

// Ping answers immediately — the defining trait of a gray failure: the
// health check lies.
func (s *SlowEnhancer) Ping() error {
	type pinger interface{ Ping() error }
	if p, ok := s.Inner.(pinger); ok {
		return p.Ping()
	}
	return nil
}

// BurstSchedule generates deterministic burst-arrival gaps for overload
// chaos tests: bursts of burstLen back-to-back arrivals (gap zero)
// separated by quiet gaps, so a test can drive n× the sustainable rate
// without wall-clock randomness. Gap returns the pre-arrival delay for
// chunk i.
type BurstSchedule struct {
	// BurstLen is how many arrivals land back-to-back per burst.
	BurstLen int
	// Quiet is the gap before each burst's first arrival.
	Quiet time.Duration
}

// Gap returns the delay to sleep before sending arrival i (0-based):
// Quiet at each burst boundary, zero inside a burst.
func (b BurstSchedule) Gap(i int) time.Duration {
	if b.BurstLen < 1 {
		return b.Quiet
	}
	if i%b.BurstLen == 0 {
		return b.Quiet
	}
	return 0
}

// Describe renders the schedule for test logs.
func (b BurstSchedule) Describe() string {
	return fmt.Sprintf("bursts of %d, %v quiet between bursts", b.BurstLen, b.Quiet)
}
