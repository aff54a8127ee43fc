package media

import (
	"container/heap"
	"sync"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// jobEntry is one queued enhancer dispatch: a batch of anchor jobs with
// the request frame it must answer and its local deadline.
type jobEntry struct {
	msg      wire.Message
	batch    []wire.AnchorJob
	deadline time.Time
	fifo     uint64
	enqueued time.Time
}

// jobQueue is a bounded earliest-deadline-first queue for enhancer
// dispatches. Service order is (deadline, arrival): the entry whose
// budget runs out soonest is served first, deadline-less entries serve
// FIFO after every deadlined one. push rejects (sheds) when the queue
// is full instead of blocking the read loop; expired entries are the
// dequeuer's problem — pop hands them over so the worker can answer
// with a typed deadline error rather than silently eating them.
//
// Blocking is channel-based: avail carries one token per queued entry
// (its capacity is the queue depth, and entries never exceed tokens, so
// the send in push can never block), which keeps the heap mutex free of
// blocking operations.
type jobQueue struct {
	mu sync.Mutex
	// entries and fifo are guarded by mu.
	entries jobHeap
	fifo    uint64

	// avail, closed, and once need no lock: channels and sync.Once carry
	// their own synchronization.
	avail  chan struct{}
	closed chan struct{}
	once   sync.Once
}

func newJobQueue(depth int) *jobQueue {
	if depth < 1 {
		depth = 1
	}
	return &jobQueue{avail: make(chan struct{}, depth), closed: make(chan struct{})}
}

// push enqueues e, reporting false when the queue is full or closed —
// the caller sheds the job with a typed error.
func (q *jobQueue) push(e *jobEntry) bool {
	select {
	case <-q.closed:
		return false
	default:
	}
	q.mu.Lock()
	if len(q.entries) >= cap(q.avail) {
		q.mu.Unlock()
		return false
	}
	e.fifo = q.fifo
	q.fifo++
	heap.Push(&q.entries, e)
	q.mu.Unlock()
	// One token per queued entry; entries ≤ depth = cap(avail), so this
	// send never blocks.
	q.avail <- struct{}{}
	return true
}

// pop blocks until an entry is available and returns the
// earliest-deadline one; ok=false means the queue closed. Entries still
// queued at close are dropped with it (their connection is gone).
func (q *jobQueue) pop() (*jobEntry, bool) {
	select {
	case <-q.avail:
	case <-q.closed:
		return nil, false
	}
	q.mu.Lock()
	e := heap.Pop(&q.entries).(*jobEntry)
	q.mu.Unlock()
	return e, true
}

// size reports the queued entry count.
func (q *jobQueue) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.entries)
}

func (q *jobQueue) close() { q.once.Do(func() { close(q.closed) }) }

// jobHeap orders entries earliest-deadline-first with FIFO tie-break;
// deadline-less entries sort after every deadlined one.
type jobHeap []*jobEntry

func (h jobHeap) Len() int { return len(h) }

func (h jobHeap) Less(a, b int) bool {
	ea, eb := h[a], h[b]
	switch {
	case ea.deadline.IsZero() && eb.deadline.IsZero():
		return ea.fifo < eb.fifo
	case ea.deadline.IsZero():
		return false
	case eb.deadline.IsZero():
		return true
	case ea.deadline.Equal(eb.deadline):
		return ea.fifo < eb.fifo
	default:
		return ea.deadline.Before(eb.deadline)
	}
}

func (h jobHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }

func (h *jobHeap) Push(x any) { *h = append(*h, x.(*jobEntry)) }

func (h *jobHeap) Pop() any {
	old := *h
	n := len(old) - 1
	e := old[n]
	old[n] = nil
	*h = old[:n]
	return e
}
