package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

// withWorkers runs fn under a temporary pool size, restoring the previous
// size afterwards.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	old := Workers()
	SetWorkers(n)
	defer SetWorkers(old)
	fn()
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, grain := range []int{1, 3, 7, 100} {
			withWorkers(t, workers, func() {
				const n = 257
				var hits [n]int32
				For(n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("bad range [%d, %d)", lo, hi)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d grain=%d: index %d visited %d times", workers, grain, i, h)
					}
				}
			})
		}
	}
}

// boundsArgs is the argument of boundsLoop: where to record each
// chunk's bounds, and the grain that turns lo into the chunk index.
type boundsArgs struct {
	bounds [][2]int
	grain  int
	seen   *int32
}

var boundsLoop = Loop[boundsArgs]{Body: func(a *boundsArgs, lo, hi int) {
	a.bounds[lo/a.grain] = [2]int{lo, hi}
	atomic.AddInt32(a.seen, 1)
}}

func TestLoopChunkLayoutIndependentOfWorkers(t *testing.T) {
	const n, grain = 103, 10
	want := Chunks(n, grain)
	for _, workers := range []int{1, 3, 8} {
		withWorkers(t, workers, func() {
			bounds := make([][2]int, want)
			var seen int32
			boundsLoop.For(n, grain, boundsArgs{bounds: bounds, grain: grain, seen: &seen})
			if int(seen) != want {
				t.Fatalf("workers=%d: %d chunks, want %d", workers, seen, want)
			}
			for c, b := range bounds {
				wantLo := c * grain
				wantHi := wantLo + grain
				if wantHi > n {
					wantHi = n
				}
				if b[0] != wantLo || b[1] != wantHi {
					t.Fatalf("workers=%d chunk %d: [%d, %d), want [%d, %d)",
						workers, c, b[0], b[1], wantLo, wantHi)
				}
			}
		})
	}
}

func TestForZeroAndNegative(t *testing.T) {
	calls := 0
	For(0, 1, func(lo, hi int) { calls++ })
	For(-5, 1, func(lo, hi int) { calls++ })
	if calls != 0 {
		t.Fatalf("For on empty range invoked fn %d times", calls)
	}
}

// TestNestedForCompletes exercises For called from inside For, the shape
// the pipeline produces when e.g. a parallel per-frame metric calls a
// parallel per-row kernel. The caller-participates design must not
// deadlock even when every resident worker is busy.
func TestNestedForCompletes(t *testing.T) {
	withWorkers(t, 4, func() {
		var total int64
		For(8, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				For(16, 2, func(ilo, ihi int) {
					atomic.AddInt64(&total, int64(ihi-ilo))
				})
			}
		})
		if total != 8*16 {
			t.Fatalf("nested For covered %d inner indices, want %d", total, 8*16)
		}
	})
}

// TestForConcurrentCallers runs For from several goroutines at once, each
// over index spaces of its own, so the recycled state of one call is
// reused by another caller's next call while workers join both; every
// index must still be visited exactly once.
func TestForConcurrentCallers(t *testing.T) {
	withWorkers(t, 3, func() {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for rep := 0; rep < 50; rep++ {
					hits := make([]int32, 64+13*g+rep)
					For(len(hits), 1+g, func(lo, hi int) {
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&hits[i], 1)
						}
					})
					for i, h := range hits {
						if h != 1 {
							t.Errorf("caller %d pass %d: index %d visited %d times", g, rep, i, h)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// markArgs is the argument of markLoop: the hit counters one call
// marks and the value it adds to each.
type markArgs struct {
	hits []int32
	add  int32
}

var markLoop = Loop[markArgs]{Body: func(a *markArgs, lo, hi int) {
	for i := lo; i < hi; i++ {
		atomic.AddInt32(&a.hits[i], a.add)
	}
}}

// TestForAllocs pins what the execution layer costs a kernel call once
// warm: a Loop.For, serial or parallel, allocates nothing, a closure For
// nothing beyond its closure, and a SlabPool Get/Put cycle nothing at
// all.
func TestForAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	hits := make([]int32, 256)
	for _, workers := range []int{1, 3} {
		withWorkers(t, workers, func() {
			if n := testing.AllocsPerRun(100, func() {
				markLoop.For(len(hits), 16, markArgs{hits: hits, add: 1})
			}); n != 0 {
				t.Errorf("workers %d: a warm Loop.For allocates %.0f times, want 0", workers, n)
			}
			n := testing.AllocsPerRun(100, func() {
				For(len(hits), 16, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
			})
			if n > 1 {
				t.Errorf("workers %d: a warm For allocates %.0f times, want at most its body closure", workers, n)
			}
		})
	}
	var p SlabPool[byte]
	if n := testing.AllocsPerRun(100, func() { p.Put(p.Get(1024)) }); n != 0 {
		t.Errorf("a warm SlabPool Get/Put cycle allocates %.0f times, want 0", n)
	}
}

// TestLoopConcurrentCallers runs one Loop from two goroutines at the
// same time, each passing arguments of its own: every call must see its
// own arguments in every chunk, however the pooled jobs and the workers
// interleave.
func TestLoopConcurrentCallers(t *testing.T) {
	withWorkers(t, 3, func() {
		var wg sync.WaitGroup
		for g := int32(1); g <= 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 200; rep++ {
					hits := make([]int32, 97+rep%7)
					markLoop.For(len(hits), 1+rep%5, markArgs{hits: hits, add: g})
					for i, h := range hits {
						if h != g {
							t.Errorf("caller %d pass %d: index %d holds %d, want %d", g, rep, i, h, g)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	})
}

func TestSetWorkersClampsToOne(t *testing.T) {
	withWorkers(t, 3, func() {
		SetWorkers(0)
		if Workers() != 1 {
			t.Fatalf("Workers() = %d after SetWorkers(0), want 1", Workers())
		}
		// Serial mode must still run everything.
		sum := 0
		For(10, 4, func(lo, hi int) { sum += hi - lo })
		if sum != 10 {
			t.Fatalf("serial For covered %d indices, want 10", sum)
		}
	})
}

func TestRowGrain(t *testing.T) {
	if g := RowGrain(1 << 20); g != 1 {
		t.Fatalf("RowGrain(wide) = %d, want 1", g)
	}
	if g := RowGrain(0); g < 1 {
		t.Fatalf("RowGrain(0) = %d, want >= 1", g)
	}
	if g := RowGrain(32); g*32 < 16<<10 {
		t.Fatalf("RowGrain(32) = %d, too small to amortize scheduling", g)
	}
}

func TestSlabPoolReuse(t *testing.T) {
	var p SlabPool[int32]
	b := p.Get(64)
	if len(b) != 64 {
		t.Fatalf("Get(64) returned len %d", len(b))
	}
	b[0] = 42
	p.Put(b)
	c := p.Get(32)
	if len(c) != 32 {
		t.Fatalf("Get(32) returned len %d", len(c))
	}
	p.Put(c)
	if d := p.Get(128); len(d) != 128 {
		t.Fatalf("Get(128) returned len %d", len(d))
	}
}

// TestSlabPoolNilAndOutstanding: a nil pool allocates and drops, and
// Outstanding counts what Get handed out and Put has not taken back.
func TestSlabPoolNilAndOutstanding(t *testing.T) {
	var none *SlabPool[byte]
	b := none.Get(16)
	if len(b) != 16 {
		t.Fatalf("nil pool Get(16) returned len %d", len(b))
	}
	none.Put(b)
	if n := none.Outstanding(); n != 0 {
		t.Fatalf("nil pool Outstanding = %d, want 0", n)
	}

	var p SlabPool[byte]
	x, y := p.Get(8), p.Get(0)
	if n := p.Outstanding(); n != 1 {
		t.Fatalf("Outstanding = %d after Get(8) and an empty Get(0), want 1", n)
	}
	p.Put(y)
	p.Put(x)
	if n := p.Outstanding(); n != 0 {
		t.Fatalf("Outstanding = %d after both Puts, want 0", n)
	}
}
