// Package par is the shared data-parallel execution layer for the pixel
// pipeline. It provides a persistent worker pool sized from
// runtime.GOMAXPROCS (overridable via the NEUROSCALER_WORKERS environment
// variable or SetWorkers), parallel loops over index ranges split into
// fixed chunks, and pooled scratch buffers.
//
// A loop is a Loop[A] or the package-level For. A Loop's body captures
// nothing: it reads its arguments from a struct the call copies into a
// pooled job, so a warm Loop.For allocates nothing. For takes a closure,
// which escapes to the heap, so it costs one object per call. The rule:
// a kernel on a per-chunk path declares a package-level Loop; For is for
// tests and cold callers.
//
// Determinism contract: every kernel built on this package must produce
// bit-identical output for any worker count. Two rules make that hold:
//
//  1. Workers only write disjoint index ranges (each body invocation gets
//     a half-open [lo, hi) slice of the index space).
//  2. Reductions never fold partial results in completion order. Either
//     the partials are exact (integer sums carried in int64/float64 below
//     2^53, where addition is associative), or the caller stores leaf
//     values into an indexed slice and folds them serially in index order
//     (see metrics.SSIM).
//
// Chunk boundaries depend only on (n, grain), never on the worker count:
// chunk lo/grain covers [lo, hi), so even chunk-indexed partials are
// stable across machines.
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
// every loop run serially on the calling goroutine. Output is
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

// Loop is a parallel loop whose body captures nothing: a kernel declares
// one at package level and passes what the body reads as an argument
// struct A to each For call. For copies the argument into a job taken
// from the loop's own pool, so a warm call allocates nothing, where a
// closure handed to the package-level For escapes to the heap on every
// call. A Loop must not be copied after first use.
type Loop[A any] struct {
	// Body runs the loop over the indices [lo, hi) of one chunk with the
	// call's arguments. It may only write state owned by its own index
	// range, and must not keep a past its return: the job holding it is
	// reused once For returns.
	Body func(a *A, lo, hi int)
	jobs sync.Pool // *job[A]
}

// job is one For call of a Loop[A]: the loop state its workers share
// and the call's arguments, which span hands to the body.
type job[A any] struct {
	loop
	owner *Loop[A]
	a     A
}

func (j *job[A]) span(lo, hi int) { j.owner.Body(&j.a, lo, hi) }

// For runs l.Body over the index range [0, n) split into grain-sized
// chunks, each call seeing its own copy of a. Chunk c always covers
// [c*grain, min((c+1)*grain, n)), independent of the worker count, so
// a body that needs the chunk index for an ordered reduction computes
// it as lo/grain. Chunks execute concurrently on the worker pool; the
// calling goroutine participates, so nested For calls cannot deadlock
// even when every resident worker is busy.
func (l *Loop[A]) For(n, grain int, a A) {
	if n <= 0 {
		return
	}
	j, _ := l.jobs.Get().(*job[A])
	if j == nil {
		j = &job[A]{owner: l}
		j.body = j
	}
	j.a = a
	j.exec(n, grain)
	// j goes back to the pool only once every participant is done with
	// it, which a deferred Put would not wait for if the body panicked;
	// the zeroed argument keeps nothing it referenced alive.
	var zero A
	j.a = zero
	l.jobs.Put(j)
}

// spanner is the one method the workers call a loop's body through.
type spanner interface{ span(lo, hi int) }

// loop is the state one For call shares with the workers that join it:
// its index space, its body and the counter chunks are claimed from.
type loop struct {
	n, grain, chunks int
	next             atomic.Int64
	body             spanner
	wg               sync.WaitGroup
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
	l.body.span(lo, min(lo+l.grain, l.n))
}

// exec runs the body over [0, n) (n > 0) in grain-sized chunks and
// returns once every chunk is done.
func (l *loop) exec(n, grain int) {
	if grain < 1 {
		grain = 1
	}
	l.n, l.grain, l.chunks = n, grain, (n+grain-1)/grain

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

// funcLoop is the Loop behind For: its argument is the closure itself.
var funcLoop = Loop[func(lo, hi int)]{Body: func(fn *func(lo, hi int), lo, hi int) { (*fn)(lo, hi) }}

// For runs fn(lo, hi) over [0, n) in grain-sized chunks, as Loop.For
// does. The closure escapes to the heap, one object per call, so For is
// for tests and cold callers; a kernel on a per-chunk path uses a Loop.
func For(n, grain int, fn func(lo, hi int)) {
	funcLoop.For(n, grain, fn)
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
