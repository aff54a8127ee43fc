// Package par is the shared data-parallel execution layer for the pixel
// pipeline. It provides a persistent worker pool sized from
// runtime.GOMAXPROCS (overridable via the NEUROSCALER_WORKERS environment
// variable or SetWorkers), a ParallelFor over index ranges, and ordered
// chunk decomposition for deterministic reductions.
//
// Determinism contract: every kernel built on this package must produce
// bit-identical output for any worker count. Two rules make that hold:
//
//  1. Workers only write disjoint index ranges (ParallelFor hands each
//     invocation a half-open [lo, hi) slice of the index space).
//  2. Reductions never fold partial results in completion order. Either
//     the partials are exact (integer sums carried in int64/float64 below
//     2^53, where addition is associative), or the caller stores leaf
//     values into an indexed slice and folds them serially in index order
//     (see metrics.SSIM).
//
// Chunk boundaries depend only on (n, grain), never on the worker count,
// so even chunk-indexed partials are stable across machines.
package par

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

var (
	mu      sync.Mutex
	nworker int
	pool    chan *loop
)

func init() {
	n := runtime.GOMAXPROCS(0)
	if s := os.Getenv("NEUROSCALER_WORKERS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 1 {
			n = v
		}
	}
	setWorkers(n)
}

// Workers returns the current worker-pool size.
func Workers() int {
	mu.Lock()
	defer mu.Unlock()
	return nworker
}

// SetWorkers resizes the pool to n workers (minimum 1). A size of 1 makes
// every ParallelFor run serially on the calling goroutine. Output is
// identical for any n; only wall-clock changes.
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	mu.Lock()
	defer mu.Unlock()
	setWorkers(n)
}

// setWorkers must be called with mu held.
func setWorkers(n int) {
	if pool != nil {
		close(pool) // retire the old pool's goroutines
	}
	nworker = n
	pool = nil
	if n > 1 {
		// The submitting goroutine always participates, so n-1 resident
		// workers give n-way parallelism.
		pool = make(chan *loop)
		for i := 0; i < n-1; i++ {
			go worker(pool)
		}
	}
}

func worker(tasks <-chan *loop) {
	for l := range tasks {
		l.run()
		l.wg.Done() // l is not touched after this: its caller may recycle it
	}
}

// loop is the state one parallel For or ForChunks call shares with the
// workers that join it: its index space, its body (exactly one of body
// and rangeBody is set) and the counter chunks are claimed from. Loops
// are recycled, so a parallel call allocates nothing beyond its body.
type loop struct {
	n, grain, chunks int
	next             atomic.Int64
	body             func(chunk, lo, hi int)
	rangeBody        func(lo, hi int)
	wg               sync.WaitGroup
}

var loops = sync.Pool{New: func() any { return new(loop) }}

// recycle returns l, which no participant may touch any more, to the
// pool, dropping its body.
func (l *loop) recycle() {
	l.body, l.rangeBody = nil, nil
	loops.Put(l)
}

// run claims chunks and runs the body on them until none is left.
func (l *loop) run() {
	for {
		c := int(l.next.Add(1) - 1)
		if c >= l.chunks {
			return
		}
		l.chunk(c)
	}
}

// chunk runs the body on chunk c.
func (l *loop) chunk(c int) {
	lo := c * l.grain
	hi := min(lo+l.grain, l.n)
	if l.rangeBody != nil {
		l.rangeBody(lo, hi)
	} else {
		l.body(c, lo, hi)
	}
}

// Chunks returns the number of grain-sized chunks covering n indices.
func Chunks(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	return (n + grain - 1) / grain
}

// For runs fn over the index range [0, n) split into grain-sized chunks,
// calling fn(lo, hi) for each chunk. Chunks execute concurrently on the
// worker pool; the calling goroutine participates, so nested For calls
// cannot deadlock even when every resident worker is busy. fn invocations
// must only write state owned by their own index range.
func For(n, grain int, fn func(lo, hi int)) {
	forChunks(n, grain, nil, fn)
}

// ForChunks is For with the chunk index exposed, for deterministic
// reductions: store each chunk's partial at partials[chunk] and fold the
// slice serially afterwards. Chunk c always covers
// [c*grain, min((c+1)*grain, n)), independent of the worker count.
func ForChunks(n, grain int, fn func(chunk, lo, hi int)) {
	forChunks(n, grain, fn, nil)
}

// forChunks is For (rangeBody set) and ForChunks (body set).
func forChunks(n, grain int, body func(chunk, lo, hi int), rangeBody func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	l := loops.Get().(*loop)
	l.n, l.grain, l.chunks = n, grain, (n+grain-1)/grain
	l.body, l.rangeBody = body, rangeBody
	// l goes back to the pool only once every participant is done with
	// it, which a deferred Put would not wait for if the body panicked.

	mu.Lock()
	w := nworker
	tasks := pool
	mu.Unlock()

	if w > l.chunks {
		w = l.chunks
	}
	if w <= 1 || tasks == nil {
		for c := 0; c < l.chunks; c++ {
			l.chunk(c)
		}
		l.recycle()
		return
	}

	l.next.Store(0)
	for i := 0; i < w-1; i++ {
		l.wg.Add(1)
		// Non-blocking submit: if every resident worker is occupied (for
		// example by a nested For), the caller simply runs more chunks
		// itself instead of queueing.
		select {
		case tasks <- l:
		default:
			l.wg.Done()
		}
	}
	l.run()
	l.wg.Wait()
	l.recycle()
}

// RowGrain returns a chunk size (in rows) targeting roughly 32K samples
// of work per chunk for rows of the given width, so short rows batch up
// and scheduling overhead stays small relative to pixel work.
func RowGrain(width int) int {
	if width < 1 {
		width = 1
	}
	g := (32 << 10) / width
	if g < 1 {
		g = 1
	}
	return g
}
