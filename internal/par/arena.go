package par

import "sync"

// SlabPool recycles []T scratch buffers across hot-path calls, removing
// per-frame allocations from kernels that need transient coefficient or
// accumulator storage. The zero value is ready to use.
//
// Buffers come back with arbitrary contents; callers must fully overwrite
// the range they use (the determinism contract forbids reading stale
// data).
type SlabPool[T any] struct {
	// p holds the pooled buffers, each boxed in a *[]T so the slice
	// header itself is not boxed into a fresh allocation on every cycle
	// (staticcheck SA6002); boxes holds the empty boxes Get leaves, for
	// the next Put to fill, so a warm Get/Put cycle allocates nothing.
	p, boxes sync.Pool
}

// Get returns a length-n slice, reusing a pooled buffer when one with
// sufficient capacity is available.
func (s *SlabPool[T]) Get(n int) []T {
	if v := s.p.Get(); v != nil {
		box := v.(*[]T)
		b := *box
		*box = nil
		s.boxes.Put(box)
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]T, n)
}

// Put returns a buffer obtained from Get to the pool. The caller must not
// use b afterwards.
func (s *SlabPool[T]) Put(b []T) {
	if cap(b) == 0 {
		return
	}
	box, _ := s.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = b[:cap(b)]
	s.p.Put(box)
}
