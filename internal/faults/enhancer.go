package faults

import (
	"fmt"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// Enhancer mirrors media.AnchorEnhancer without importing it, so a
// FlakyEnhancer satisfies the media interface structurally.
type Enhancer interface {
	Enhance(streamID uint32, job wire.AnchorJob) (wire.AnchorResult, error)
}

// FlakyEnhancer injects faults in front of an enhancer replica. Corrupt
// faults truncate the encoded anchor to a few bytes — guaranteed to fail
// the server's anchor validation rather than silently shipping garbage
// pixels.
type FlakyEnhancer struct {
	Inner Enhancer
	Inj   *Injector
	// Gate, when non-nil, is the replica kill switch.
	Gate *Gate
}

// Enhance implements the enhancer interface with faults applied.
func (f *FlakyEnhancer) Enhance(streamID uint32, job wire.AnchorJob) (wire.AnchorResult, error) {
	if f.Gate != nil && f.Gate.Dead() {
		return wire.AnchorResult{}, fmt.Errorf("faults: enhance stream %d: %w", streamID, ErrKilled)
	}
	switch f.Inj.Next() {
	case Error:
		return wire.AnchorResult{}, fmt.Errorf("faults: enhance stream %d: %w", streamID, ErrInjected)
	case Drop:
		return wire.AnchorResult{}, fmt.Errorf("faults: enhancer connection dropped: %w", ErrInjected)
	case Stall:
		time.Sleep(f.Inj.StallFor())
	case Corrupt:
		res, err := f.Inner.Enhance(streamID, job)
		if err != nil {
			return res, err
		}
		if len(res.Encoded) > 3 {
			res.Encoded = res.Encoded[:3]
		}
		return res, nil
	}
	return f.Inner.Enhance(streamID, job)
}

// EnhanceBatch applies faults per anchor: each batch member gets its own
// injector draw, so a seeded fault mid-batch degrades only the anchors it
// hits while the siblings return their real results. A dead gate fails
// the whole batch like the dropped connection it models.
func (f *FlakyEnhancer) EnhanceBatch(streamID uint32, jobs []wire.AnchorJob) ([]wire.AnchorOutcome, error) {
	if f.Gate != nil && f.Gate.Dead() {
		return nil, fmt.Errorf("faults: enhance batch stream %d: %w", streamID, ErrKilled)
	}
	outs := make([]wire.AnchorOutcome, len(jobs))
	for i, job := range jobs {
		outs[i].Res, outs[i].Err = f.Enhance(streamID, job)
	}
	return outs, nil
}

// Register forwards per-stream registration when the inner replica
// supports it, so a FlakyEnhancer drops into any place a registering
// enhancer fits. A dead gate rejects registration like any other call.
func (f *FlakyEnhancer) Register(streamID uint32, h wire.Hello) error {
	if f.Gate != nil && f.Gate.Dead() {
		return fmt.Errorf("faults: register stream %d: %w", streamID, ErrKilled)
	}
	type registrar interface {
		Register(uint32, wire.Hello) error
	}
	if r, ok := f.Inner.(registrar); ok {
		return r.Register(streamID, h)
	}
	return nil
}

// Ping reports replica liveness for heartbeat-based health checks.
func (f *FlakyEnhancer) Ping() error {
	if f.Gate != nil && f.Gate.Dead() {
		return fmt.Errorf("faults: ping: %w", ErrKilled)
	}
	type pinger interface{ Ping() error }
	if p, ok := f.Inner.(pinger); ok {
		return p.Ping()
	}
	return nil
}
