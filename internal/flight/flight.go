// Package flight is the serving path's one single-flight: concurrent
// callers needing the same key's result share one computation of it —
// the edge's cache misses (one origin fetch per cold chunk) and the
// origin's lazy builds (one enhancement per pending chunk).
//
// The API is closure-free on purpose, since a Do(k, fn) shape would put
// one heap closure on every edge miss: a caller Joins, then either leads
// (works, then Completes) or Waits.
package flight

import (
	"errors"
	"sync"
	"time"
)

// ErrDeadline is what a waiter gets when its own deadline passes before
// the leader publishes. The message carries media's "deadline exceeded"
// wire marker, so an origin's reply with it arrives typed.
var ErrDeadline = errors.New("flight: deadline exceeded waiting on the leader")

// Call is one key's flight, from the leader's Join to its Complete.
type Call[V any] struct {
	done chan struct{}
	// waiters and settled are guarded by the group's mu. settled flips
	// when the leader publishes; it tells a leaving waiter whether its
	// grant exists.
	waiters int
	settled bool
	// val and err are written once, before done closes.
	val V
	err error
}

// Group coalesces work per key: at most one flight per key is airborne
// at a time.
//
// grant and drop are an optional per-waiter pair for values whose
// holders must be counted (the edge's refcounted cache entries). grant
// mints one waiter's share of a published value and returns the value
// that share is held through; Complete calls it once per waiter, before
// waking any of them, so no waiter races the leader's own release. drop
// returns the share of a waiter that left after the publish. With both
// nil every waiter simply reads the value.
type Group[K comparable, V any] struct {
	grant func(V) V
	drop  func(V)

	mu sync.Mutex
	// calls is guarded by mu.
	calls map[K]*Call[V]
}

// New returns an empty group with the given grant/drop pair (both nil,
// or both set).
func New[K comparable, V any](grant func(V) V, drop func(V)) *Group[K, V] {
	return &Group[K, V]{grant: grant, drop: drop, calls: make(map[K]*Call[V])}
}

// Join returns k's flight and whether the caller leads it. A leader must
// call Complete exactly once; every other caller must call Wait.
func (g *Group[K, V]) Join(k K) (c *Call[V], leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[k]; ok {
		c.waiters++
		return c, false
	}
	c = &Call[V]{done: make(chan struct{})}
	g.calls[k] = c
	return c, true
}

// Complete publishes the leader's result: it retires k, grants one share
// of a successful v per waiter, and wakes every waiter. The leader calls
// it after its side effect (the edge's cache admit, the origin's store
// write-back), so a caller that finds k retired finds the result there
// instead of starting a second flight.
func (g *Group[K, V]) Complete(k K, c *Call[V], v V, err error) {
	g.mu.Lock()
	delete(g.calls, k)
	c.settled = true
	waiters := c.waiters
	g.mu.Unlock()
	if err == nil && g.grant != nil {
		for i := 0; i < waiters; i++ {
			v = g.grant(v)
		}
	}
	c.val, c.err = v, err
	close(c.done)
}

// Wait blocks a waiter until its flight publishes or its own deadline
// passes, whichever is first — the leader's deadline may be later. On
// success the waiter holds one granted share of the value; on the
// leader's error it gets that error; on its own deadline it leaves with
// ErrDeadline holding nothing. A zero deadline waits for the publish.
func (g *Group[K, V]) Wait(c *Call[V], deadline time.Time) (V, error) {
	if deadline.IsZero() {
		<-c.done //nslint:disable budgetflow -- a zero deadline means no wire budget and no configured backstop: unbounded by operator choice
		return c.val, c.err
	}
	wait := time.NewTimer(time.Until(deadline))
	defer wait.Stop()
	select {
	case <-c.done:
		return c.val, c.err
	case <-wait.C:
		g.leave(c)
		var zero V
		return zero, ErrDeadline
	}
}

// leave retracts a waiter whose deadline passed. Before the publish it
// is uncounted, so no share is minted for it; after, its share exists
// (or is being minted), so leave waits for the publish to finish and
// drops it. Either way grants and drops balance.
func (g *Group[K, V]) leave(c *Call[V]) {
	g.mu.Lock()
	settled := c.settled
	if !settled {
		c.waiters--
	}
	g.mu.Unlock()
	if !settled {
		return
	}
	<-c.done // every grant is minted once done closes
	if c.err == nil && g.drop != nil {
		g.drop(c.val)
	}
}
