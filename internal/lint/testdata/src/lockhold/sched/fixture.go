// Package sched is a lockhold fixture: blocking operations inside
// lexical critical sections, plus the documented lock-order edges.
package sched

import (
	"sync"
	"time"
)

type queue struct {
	mu   sync.Mutex
	ch   chan int
	done chan int
	wg   sync.WaitGroup
}

func newQueue() *queue {
	return &queue{
		ch:   make(chan int),
		done: make(chan int, 8),
	}
}

func (q *queue) sleepUnderLock() {
	q.mu.Lock()
	defer q.mu.Unlock()
	time.Sleep(time.Millisecond) // want `time.Sleep while holding`
}

func (q *queue) sendUnderLock(v int) {
	q.mu.Lock()
	q.ch <- v // want `send on unbuffered channel`
	q.mu.Unlock()
}

func (q *queue) bufferedSendUnderLock(v int) {
	q.mu.Lock()
	q.done <- v // buffered elsewhere: not provably blocking
	q.mu.Unlock()
}

func (q *queue) waitUnderLock() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.wg.Wait() // want `Wait while holding`
}

func (q *queue) sleepOutsideLock() {
	q.mu.Lock()
	q.mu.Unlock() //nolint:staticcheck // empty critical section is the fixture's point
	time.Sleep(time.Millisecond)
}

// Lock-order fixtures: one edge declared the way real code declares it,
// and one nesting nothing declares.
type EnhancerPool struct {
	helloMu sync.Mutex
	mu      sync.Mutex
}

type poolReplica struct {
	mu   sync.Mutex
	pool *EnhancerPool
}

// syncRegistrationsLocked runs with r.mu held (the *Locked convention);
// taking helloMu under it is the documented edge.
//
//nslint:lock-order poolReplica.mu -> EnhancerPool.helloMu -- fixture: the documented edge
func (r *poolReplica) syncRegistrationsLocked() {
	r.pool.helloMu.Lock()
	r.pool.helloMu.Unlock()
}

func (r *poolReplica) badNesting() {
	r.pool.mu.Lock()
	r.mu.Lock() // want `outside the documented lock order`
	r.mu.Unlock()
	r.pool.mu.Unlock()
}
