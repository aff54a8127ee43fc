package par

import (
	"sync"
	"sync/atomic"
)

// SlabPool recycles []T scratch buffers across hot-path calls, removing
// per-frame allocations from kernels that need transient coefficient or
// accumulator storage. The zero value is ready to use, and a nil
// *SlabPool is valid too: it allocates every buffer and drops what it is
// handed back, for callers that keep what they read.
//
// Buffers come back with arbitrary contents; callers must fully overwrite
// the range they use (the determinism contract forbids reading stale
// data). A race build clears each buffer as it is handed back, so a
// read after Put sees zeros rather than the bytes it expected.
type SlabPool[T any] struct {
	// p holds the pooled buffers, each boxed in a *[]T so the slice
	// header itself is not boxed into a fresh allocation on every cycle
	// (staticcheck SA6002); boxes holds the empty boxes Get leaves, for
	// the next Put to fill, so a warm Get/Put cycle allocates nothing.
	p, boxes sync.Pool
	// out is Outstanding's count.
	out atomic.Int64
}

// Get returns a length-n slice, reusing a pooled buffer when one with
// sufficient capacity is available.
func (s *SlabPool[T]) Get(n int) []T {
	if s == nil {
		return make([]T, n)
	}
	var b []T
	if v := s.p.Get(); v != nil {
		box := v.(*[]T)
		b = *box
		*box = nil
		s.boxes.Put(box)
	}
	if cap(b) < n {
		b = make([]T, n)
	}
	if cap(b) > 0 {
		s.out.Add(1)
	}
	return b[:n]
}

// Put returns a buffer obtained from Get to the pool. The caller must not
// use b afterwards.
func (s *SlabPool[T]) Put(b []T) {
	if s == nil || cap(b) == 0 {
		return
	}
	s.out.Add(-1)
	b = b[:cap(b)]
	if raceEnabled {
		clear(b)
	}
	box, _ := s.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = b
	s.p.Put(box)
}

// Outstanding is the number of buffers Get has handed out and Put has not
// taken back (buffers of zero capacity are not counted), so a balanced
// owner leaves it where it found it. It is 0 for a nil pool.
func (s *SlabPool[T]) Outstanding() int64 {
	if s == nil {
		return 0
	}
	return s.out.Load()
}
